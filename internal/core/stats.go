package core

import (
	"fmt"
	"time"

	"smp/internal/stringmatch"
)

// Stats collects the runtime counters of one run. The paper's window engine
// (this package) fills them as the columns of the paper's Tables I and II;
// the staged driver (internal/pipeline), which serves every public run,
// fills the same fields for its scan and replay, so its CharComparisons
// and Shifts count a scan that reads every byte rather than the skips of
// Boyer-Moore and Commentz-Walter.
type Stats struct {
	// BytesRead is the document size in bytes (the window reads everything;
	// only a fraction is inspected).
	BytesRead int64
	// BytesWritten is the size of the projected output ("Proj. Size").
	BytesWritten int64
	// CharComparisons is the number of characters inspected: string-matcher
	// comparisons plus the characters examined while scanning for tag ends
	// and verifying matches ("Char Comp.").
	CharComparisons int64
	// InitialJumpBytes is the number of characters skipped by initial jump
	// offsets alone ("Initial Jumps").
	InitialJumpBytes int64
	// Shifts and ShiftTotal accumulate the forward shifts performed by the
	// string matchers ("Ø Shift Size").
	Shifts     int64
	ShiftTotal int64
	// TagsMatched counts tag tokens the runtime automaton consumed.
	TagsMatched int64
	// RejectedMatches counts keyword occurrences discarded by the
	// verification scan (tagname-prefix collisions such as
	// Abstract/AbstractText).
	RejectedMatches int64
	// States is the total number of runtime-automaton states; CWStates and
	// BMStates count the states for which Commentz-Walter respectively
	// Boyer-Moore lookup tables exist ("States (CW + BM)").
	States   int
	CWStates int
	BMStates int
	// MatchersBuilt counts the matcher tables of the shared compiled Plan.
	// They are built once, at compile time; no run ever constructs one.
	MatchersBuilt int
	// MaxBufferBytes is the high-water mark of the run's input buffers —
	// the window engine's streaming window, or the staged driver's live
	// segments — the per-run memory. The shared table memory is reported
	// separately by PlanStats (together they approximate the paper's "Mem"
	// column). Zero-copy window-engine runs hold no private window buffer
	// and report zero; the staged driver counts the live segments even when
	// they alias the document.
	MaxBufferBytes int64
	// ZeroCopyInput reports that the run scanned the document in place — a
	// memory-mapped file or a caller-provided byte slice — instead of
	// copying it through the streaming window.
	ZeroCopyInput bool
	// IndexHits counts runs served by replaying a persisted candidate index
	// (internal/index) instead of scanning the document; IndexSkips counts
	// runs that were offered an index but fell back to the scan because the
	// sidecar was missing, stale (content-hash mismatch) or did not cover
	// the query vocabulary. A single run contributes at most one of the two;
	// batches aggregate them through Add.
	IndexHits  int64
	IndexSkips int64
	// IndexSummarySkips counts index-served runs where the per-document
	// vocabulary summary proved that no query keyword occurs at all, so even
	// the replay ran over an empty candidate stream (corpus-granularity
	// prefiltering). Always <= IndexHits.
	IndexSummarySkips int64
	// ScanDuration, ReplayDuration and StitchDuration split a staged
	// (internal/pipeline) run into its stages: segment scanning (for an
	// index replay, slicing the stored stream), candidate replay through
	// the runtime automaton, and stitching the projected output to the
	// writers. One rule holds at every worker count: each is time summed
	// across the run's workers — the scan tasks, the output writes, and the
	// rest of the workers' busy time (idle waits excluded) as replay — so
	// with one worker they split its wall time and with several they can
	// together exceed it. ScanDuration and ReplayDuration are always
	// measured on staged runs; StitchDuration is only measured when a trace
	// is attached (per-write clock reads are not free), and ReplayDuration
	// excludes it — so without a trace ReplayDuration also absorbs the
	// stitch time. The window engine has no stages and leaves all three
	// zero.
	ScanDuration   time.Duration
	ReplayDuration time.Duration
	StitchDuration time.Duration
}

// CharCompPercent returns CharComparisons relative to the document size.
func (s Stats) CharCompPercent() float64 {
	if s.BytesRead == 0 {
		return 0
	}
	return 100 * float64(s.CharComparisons) / float64(s.BytesRead)
}

// InitialJumpPercent returns the characters skipped by initial jumps
// relative to the document size.
func (s Stats) InitialJumpPercent() float64 {
	if s.BytesRead == 0 {
		return 0
	}
	return 100 * float64(s.InitialJumpBytes) / float64(s.BytesRead)
}

// AvgShift returns the average forward shift size in characters.
func (s Stats) AvgShift() float64 {
	if s.Shifts == 0 {
		return 0
	}
	return float64(s.ShiftTotal) / float64(s.Shifts)
}

// OutputRatio returns the projected size relative to the input size.
func (s Stats) OutputRatio() float64 {
	if s.BytesRead == 0 {
		return 0
	}
	return float64(s.BytesWritten) / float64(s.BytesRead)
}

// Add merges other's counters into s, for callers that aggregate several
// runs (a batch of documents, or the per-query legs of one multi-query
// pass): the work counters — bytes, comparisons, jumps, shifts, tags,
// rejections — and the table sizes (States, CWStates, BMStates,
// MatchersBuilt, which sum to the total automaton size driven by the merged
// runs) are added, while MaxBufferBytes keeps the largest single-run
// high-water mark, since runs that did not overlap in time never held their
// buffers together.
func (s *Stats) Add(other Stats) {
	s.BytesRead += other.BytesRead
	s.BytesWritten += other.BytesWritten
	s.CharComparisons += other.CharComparisons
	s.InitialJumpBytes += other.InitialJumpBytes
	s.Shifts += other.Shifts
	s.ShiftTotal += other.ShiftTotal
	s.TagsMatched += other.TagsMatched
	s.RejectedMatches += other.RejectedMatches
	s.States += other.States
	s.CWStates += other.CWStates
	s.BMStates += other.BMStates
	s.MatchersBuilt += other.MatchersBuilt
	if other.MaxBufferBytes > s.MaxBufferBytes {
		s.MaxBufferBytes = other.MaxBufferBytes
	}
	s.ZeroCopyInput = s.ZeroCopyInput || other.ZeroCopyInput
	s.IndexHits += other.IndexHits
	s.IndexSkips += other.IndexSkips
	s.IndexSummarySkips += other.IndexSummarySkips
	s.ScanDuration += other.ScanDuration
	s.ReplayDuration += other.ReplayDuration
	s.StitchDuration += other.StitchDuration
}

// addMatcher accumulates the run's string-matcher counters.
func (s *Stats) addMatcher(m stringmatch.Counters) {
	s.CharComparisons += m.Comparisons
	s.Shifts += m.Shifts
	s.ShiftTotal += m.ShiftTotal
}

// String renders the stats in the shape of one Table I column.
func (s Stats) String() string {
	return fmt.Sprintf(
		"proj=%dB mem=%dB states=%d(%d+%d) shift=%.2f jumps=%.2f%% charcomp=%.2f%%",
		s.BytesWritten, s.MaxBufferBytes, s.States, s.CWStates, s.BMStates,
		s.AvgShift(), s.InitialJumpPercent(), s.CharCompPercent())
}
