package pipeline

import (
	"errors"
	"io"
	"math"
	"time"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/glushkov"
	"smp/internal/obs"
	"smp/internal/projection"
)

// Logical trace-thread ids for the stage spans a traced run records. Tid 0
// is reserved for the caller's compile span (see smp.WithTrace).
const (
	traceTIDScan   = 1
	traceTIDReplay = 2
	traceTIDStitch = 3
)

// qrun is the replay state of one query: its automaton position, cursor,
// copy region and counters — exactly the per-run state of a standalone
// serial engine, minus the window (the driver's shared segment chain plays
// that role for every query at once).
type qrun struct {
	plan  *core.Plan
	table *compile.Table
	rt    *replayTable
	out   io.Writer

	q  int
	st *compile.State
	// row is state q's transition row over the union keyword IDs: the one
	// load that decides whether a candidate is visible to the query.
	row    []int32
	cursor int64

	copyActive bool
	copyStart  int64

	// seg is the index (sequence number) of the segment whose candidates the
	// query consumes next, cand the position within its candidate list.
	seg, cand int
	// chaseAt (0: none) and chase resume the tag-end scan of candidate cand
	// after it yielded, so a long tag is fed once however often it yields.
	chaseAt int64
	chase   core.TagScan

	stats    core.Stats
	writeErr error
	err      error
	done     bool
}

// live reports whether the query still consumes candidates.
func (k *qrun) live() bool { return !k.done && k.err == nil }

// enter moves the query to state q: it re-resolves the state pointer,
// completes the query if no vocabulary remains (the state is final by
// construction), and applies the state's initial jump (table J) — the same
// order as the serial engine's run loop head.
func (k *qrun) enter(q int) {
	k.q = q
	k.st = k.table.State(q)
	k.row = k.rt.row(q)
	if len(k.st.Vocabulary) == 0 {
		k.done = true
		return
	}
	if k.st.Jump > 0 {
		k.cursor += int64(k.st.Jump)
		k.stats.InitialJumpBytes += int64(k.st.Jump)
	}
}

// driver owns the chain of live segments and steps the K query replays over
// it. A serial run (W <= 1) is one driver pulling segments from its source
// in rounds (run); in a pool run (W > 1, pool.go) each worker steps queries
// on its own driver over a snapshot of the pool's segments, with no source.
type driver struct {
	// tokens and closeOf are the engine's union keyword tables: a
	// candidate's token, and the closing keyword of a bachelor tag.
	tokens  []glushkov.Token
	closeOf []int32

	src      source
	segs     []*mseg // live chain; segs[0] has sequence number firstSeq
	firstSeq int
	queries  []*qrun

	// terminal is what a snapshot (src == nil) reports when a step needs
	// input past it: errPending while the input goes on, the input's
	// terminal error (nil at a clean end) once it holds the last segment.
	terminal error

	held    int // bytes across live segments (the run's memory)
	maxHeld int

	// Stage timing. scanDur (time spent pulling segments from the source)
	// is always measured: two clock reads per segment round, noise against
	// the per-segment scan itself. stitchDur (time inside output writes) is
	// only measured when a trace is attached — a clock read per Write would
	// tax candidate-dense replays — so untraced runs fold stitching into
	// the replay remainder, which run derives from its wall time.
	trace     *obs.Trace
	scanDur   time.Duration
	stitchDur time.Duration
}

// errPending reports that a step needs input past a pool worker's snapshot:
// the query yields until the pool has cut further. It never leaves the
// package.
var errPending = errors.New("pipeline: input past the read frontier")

func newDriver(e *Engine, dsts []io.Writer, src source, trace *obs.Trace) *driver {
	d := &driver{tokens: e.scan.Tokens(), closeOf: e.closeOf, src: src, trace: trace}
	d.queries = make([]*qrun, len(e.plans))
	for i, plan := range e.plans {
		out := dsts[i]
		if out == nil {
			out = io.Discard
		}
		d.queries[i] = &qrun{plan: plan, table: plan.Table(), rt: &e.replay[i], out: out}
		d.queries[i].enter(plan.Table().Initial)
	}
	return d
}

func (d *driver) lastSeq() int { return d.firstSeq + len(d.segs) - 1 }

func (d *driver) anyLive() bool {
	for _, k := range d.queries {
		if k.live() {
			return true
		}
	}
	return false
}

// load appends the next scanned segment to the chain. It reports false when
// the input is exhausted (see inputErr) and, always, on a snapshot.
func (d *driver) load() bool {
	if d.src == nil {
		return false
	}
	t0 := time.Now()
	seg := d.src.next()
	dur := time.Since(t0)
	d.scanDur += dur
	if d.trace != nil && seg != nil {
		d.trace.Add("scan", traceTIDScan, t0.Sub(d.trace.Origin()), dur)
	}
	if seg == nil {
		return false
	}
	d.segs = append(d.segs, seg)
	d.held += len(seg.data)
	if d.held > d.maxHeld {
		d.maxHeld = d.held
	}
	return true
}

// inputErr reports why the chain cannot grow: the input's terminal error
// (nil at a clean end), or errPending on a snapshot before the input's end.
func (d *driver) inputErr() error {
	if d.src != nil {
		return d.src.err()
	}
	return d.terminal
}

// run executes a serial replay: load one segment per round, advance every
// live query through everything loaded, retire what nobody needs anymore.
// Pulling stops as soon as every query has finished (like the serial
// engine, which stops at its final automaton state). One query's tag chase
// can pull segments ahead mid-round; queries advanced earlier that round
// catch up on the next pass, so the loop only ends once the input is
// exhausted AND every live query has consumed every loaded segment.
func (d *driver) run() (Result, error) {
	start := time.Now()
	for d.anyLive() {
		loaded := d.load()
		caughtUp := true
		for _, k := range d.queries {
			if k.live() && k.seg <= d.lastSeq() {
				d.advance(k, math.MaxInt)
				caughtUp = false
			}
		}
		d.retire()
		if !loaded && caughtUp {
			break
		}
	}
	d.finish(d.src.err())
	elapsed := time.Since(start)
	if d.trace != nil {
		d.trace.NameThread(traceTIDScan, "scan")
		d.trace.NameThread(traceTIDReplay, "replay")
		d.trace.NameThread(traceTIDStitch, "stitch")
		d.trace.Add("replay (drive)", traceTIDReplay, start.Sub(d.trace.Origin()), elapsed)
		d.trace.Add("stitch (total)", traceTIDStitch, start.Sub(d.trace.Origin()), d.stitchDur)
	}
	scan := core.Stats{MaxBufferBytes: int64(d.maxHeld), ScanDuration: d.scanDur, StitchDuration: d.stitchDur,
		ReplayDuration: max(elapsed-d.scanDur-d.stitchDur, 0)}
	d.src.close(&scan)
	return d.result(scan)
}

// advance feeds k the candidates of the chain's segments before sequence
// number limit, in position order. Candidates before the cursor (inside the
// previous tag, or skipped by a jump) and candidates whose keyword the
// current state does not search for (a -1 in its transition row) are
// invisible, exactly as they are to a standalone run. Resolving a
// straddling tag end may load further segments mid-loop; re-reading lastSeq
// each iteration picks those up. Each finished segment flushes k's open
// copy region to its end (the next match starts at or after it), so a
// failing query has written its projection up to the segment boundary
// before the failing tag. advance reports false when k yielded on a
// snapshot, its candidate unconsumed.
func (d *driver) advance(k *qrun, limit int) bool {
	for k.live() && k.seg < limit && k.seg <= d.lastSeq() {
		seg := d.segs[k.seg-d.firstSeq]
		cands := seg.cands
		row, cursor := k.row, k.cursor
		for i := k.cand; i < len(cands); i++ {
			c := &cands[i]
			if c.Pos < cursor || row[c.Kw] < 0 {
				continue
			}
			if !d.selectCandidate(k, c) {
				k.cand = i
				return false
			}
			k.cand = i + 1
			if !k.live() {
				return true
			}
			row, cursor = k.row, k.cursor
		}
		if k.copyActive && k.copyStart < seg.end() {
			d.writeRaw(k, k.copyStart, seg.end())
			k.copyStart = seg.end()
			if k.writeErr != nil {
				k.err = k.writeErr
				return true
			}
		}
		k.seg++
		k.cand = 0
	}
	return true
}

// selectCandidate performs one step of the Fig. 4 automaton for query k: the
// candidate is the first valid occurrence of the state's vocabulary at or
// after the cursor — the same occurrence the standalone engine's search
// would have matched. A bachelor tag is treated as its opening tag
// immediately followed by its closing tag. It reports false, with k
// untouched, when the tag reaches past a snapshot.
func (d *driver) selectCandidate(k *qrun, c *core.Candidate) bool {
	tagEnd, bachelor, err := d.resolveTagEnd(k, c)
	if err == nil && d.src == nil && tagEnd >= d.segs[len(d.segs)-1].end() {
		// A copy of the tag needs the segment owning its end, which a
		// serial driver loads in writeRaw; a snapshot must hold it up front.
		err = d.cover(tagEnd)
	}
	if err == errPending {
		return false
	}
	if err != nil {
		k.err = err
		return true
	}
	// advance only selects keywords in the state's vocabulary, and every
	// vocabulary entry has a successor.
	next := int(k.row[c.Kw])
	if d.tokens[c.Kw].Close {
		d.performClose(k, next, tagEnd, false)
		k.q = next
	} else {
		d.performOpen(k, next, c.Pos, tagEnd, bachelor)
		k.q = next
		if bachelor {
			nextClose := int32(-1)
			if ck := d.closeOf[c.Kw]; ck >= 0 {
				nextClose = k.rt.row(next)[ck]
			}
			if nextClose < 0 {
				k.err = core.TransitionError(k.q, glushkov.Closing(d.tokens[c.Kw].Name))
				return true
			}
			d.performClose(k, int(nextClose), tagEnd, true)
			k.q = int(nextClose)
		}
	}
	if k.writeErr != nil {
		k.err = k.writeErr
		return true
	}
	k.stats.TagsMatched++
	k.cursor = tagEnd + 1
	k.enter(k.q)
	return true
}

// resolveTagEnd returns the candidate's tag end, resuming the scan across
// following segments when the tag straddles the candidate's data (the
// scanner then reported Complete == false). Running out of input mirrors the
// serial engine: a pending read or context error surfaces as such, a clean
// end of input inside a tag is the EOF-inside-tag error. A chase past a
// snapshot is suspended in k.
func (d *driver) resolveTagEnd(k *qrun, c *core.Candidate) (int64, bool, error) {
	if c.Complete {
		if c.Fail != core.FailNone {
			return 0, false, c.Err()
		}
		return c.TagEnd, c.Bachelor, nil
	}
	ts, i := k.chase, k.chaseAt
	if i == 0 {
		ts, i = core.TagScan{}, c.Pos+int64(c.KwLen)
	}
	k.chaseAt = 0
	// The chase starts in k's current segment and only moves forward.
	for n := k.seg - d.firstSeq; ; n++ {
		if n == len(d.segs) && !d.load() {
			err := d.inputErr()
			if err == errPending {
				k.chase, k.chaseAt = ts, i
				return 0, false, err
			}
			if err == nil {
				err = core.EOFInsideTagError(c.Pos)
			}
			return 0, false, err
		}
		seg := d.segs[n]
		if i >= seg.end() {
			continue
		}
		data := seg.data[:seg.owned]
		for rel := int(i - seg.base); rel < len(data); rel++ {
			k.stats.CharComparisons++
			done, bachelor := ts.Feed(data[rel])
			if done {
				if d.tokens[c.Kw].Close {
					bachelor = false
				}
				return seg.base + int64(rel), bachelor, nil
			}
			if seg.base+int64(rel)+1-c.Pos > core.MaxTagLength {
				return 0, false, core.TagTooLongError(c.Pos)
			}
		}
		i = seg.end()
	}
}

// performOpen executes the action of state q, entered by an opening tag
// (mirror of the serial engine's performOpen, writing to k's output).
func (d *driver) performOpen(k *qrun, q int, tagStart, tagEnd int64, bachelor bool) {
	switch k.table.States[q].Action {
	case projection.CopySubtree:
		k.copyActive = true
		k.copyStart = tagStart
	case projection.CopyTagAttrs:
		d.writeRaw(k, tagStart, tagEnd+1)
	case projection.CopyTag:
		if bachelor {
			d.writeTag(k, k.rt.tags[q].bachelor)
		} else {
			d.writeTag(k, k.rt.tags[q].open)
		}
	}
}

// performClose executes the action of state q, entered by a closing tag
// (mirror of the serial engine's performClose).
func (d *driver) performClose(k *qrun, q int, tagEnd int64, bachelor bool) {
	switch k.table.States[q].Action {
	case projection.CopySubtree:
		if k.copyActive {
			d.writeRaw(k, k.copyStart, tagEnd+1)
			k.copyActive = false
		} else if !bachelor {
			d.writeTag(k, k.rt.tags[q].close)
		}
	case projection.CopyTagAttrs, projection.CopyTag:
		if !bachelor {
			d.writeTag(k, k.rt.tags[q].close)
		}
	}
}

// cover makes the chain's owned ranges reach past the absolute offset,
// loading further segments as needed. It fails only on a snapshot or if the
// input ends first, which cannot happen for offsets inside a resolved tag.
func (d *driver) cover(off int64) error {
	for {
		if n := len(d.segs); n > 0 && d.segs[n-1].end() > off {
			return nil
		}
		if !d.load() {
			if err := d.inputErr(); err != nil {
				return err
			}
			return io.ErrUnexpectedEOF
		}
	}
}

// writeRaw copies the input bytes [from, to) to k's output from the
// segments' owned ranges, walking only the segments the write spans (from
// is never before k's segment). A resolved tag end may lie in a segment's
// lookahead whose owner has not been loaded yet — cover loads it first.
func (d *driver) writeRaw(k *qrun, from, to int64) {
	if k.writeErr != nil || to <= from {
		return
	}
	if k.writeErr = d.cover(to - 1); k.writeErr != nil {
		return
	}
	for _, seg := range d.segs[k.seg-d.firstSeq:] {
		if seg.base >= to {
			return
		}
		lo, hi := max(from, seg.base), min(to, seg.end())
		if lo >= hi {
			continue
		}
		var t0 time.Time
		if d.trace != nil {
			t0 = time.Now()
		}
		n, err := k.out.Write(seg.data[lo-seg.base : hi-seg.base])
		if d.trace != nil {
			d.stitchDur += time.Since(t0)
		}
		k.stats.BytesWritten += int64(n)
		if err != nil {
			k.writeErr = err
			return
		}
	}
}

// writeTag writes a synthesized tag to k's output.
func (d *driver) writeTag(k *qrun, tag []byte) {
	if k.writeErr != nil {
		return
	}
	var t0 time.Time
	if d.trace != nil {
		t0 = time.Now()
	}
	n, err := k.out.Write(tag)
	if d.trace != nil {
		d.stitchDur += time.Since(t0)
	}
	k.stats.BytesWritten += int64(n)
	if err != nil {
		k.writeErr = err
	}
}

// retire drops head segments every live query has moved past, returning
// their buffers to the source.
func (d *driver) retire() {
	for len(d.segs) > 0 {
		for _, k := range d.queries {
			if k.live() && k.seg <= d.firstSeq {
				return
			}
		}
		head := d.segs[0]
		d.segs = d.segs[1:]
		d.firstSeq++
		d.held -= len(head.data)
		d.src.recycle(head)
	}
}

// finish settles every query still live once the input is exhausted: a
// terminal input error (read failure, cancelled context) fails each of them
// — the standalone engine would have hit the same error at its window's next
// read, even in a final state — while a clean end of input completes queries
// whose state is final and diagnoses the others exactly as the serial
// engine's end-of-input path does.
func (d *driver) finish(terminal error) {
	for _, k := range d.queries {
		switch {
		case !k.live():
		case terminal != nil:
			k.err = terminal
		case k.st.Final:
			k.done = true
		default:
			k.err = core.EndOfInputError(k.q, k.st)
		}
	}
}

// result assembles the per-query Stats and error slots around the run's
// shared scan-side counters.
func (d *driver) result(scan core.Stats) (Result, error) {
	res := Result{Query: make([]core.Stats, len(d.queries)), Scan: scan}

	failed := false
	for i, k := range d.queries {
		k.stats.BytesRead = res.Scan.BytesRead
		k.stats.States = k.table.Stats.States
		k.stats.CWStates = k.table.Stats.CWStates
		k.stats.BMStates = k.table.Stats.BMStates
		k.stats.MatchersBuilt = k.plan.MatcherCount()
		res.Query[i] = k.stats
		if k.err != nil {
			failed = true
		}
	}
	if !failed {
		return res, nil
	}
	errs := make([]error, len(d.queries))
	for i, k := range d.queries {
		errs[i] = k.err
	}
	return res, &Error{Errs: errs}
}
