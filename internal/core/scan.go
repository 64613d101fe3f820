package core

import (
	"bytes"
	"sort"

	"smp/internal/glushkov"
	"smp/internal/stringmatch"
)

// This file is the core half of the unified parallel projection pipeline
// (internal/pipeline): a position-exhaustive keyword scan over one segment of
// the input, against the union of all states' frontier vocabularies.
//
// The serial engine searches only for the current state's vocabulary and
// therefore cannot start mid-document — the automaton state at an interior
// offset depends on the whole prefix. The segment scanner side-steps that by
// being speculative: it finds *every* verified keyword occurrence of *any*
// state's vocabulary within its segment. A sequential stitcher then replays
// the runtime automaton over the per-segment candidate lists, which selects
// exactly the occurrences the serial engine would have matched.
//
// Two structural properties of the keyword set make the candidate lists a
// sound and complete oracle for the serial search:
//
//  1. Every keyword starts with '<' and contains no interior '<', so two
//     occurrences at different positions can never overlap, and scanning
//     '<' anchors in order enumerates candidates in strictly increasing
//     position order.
//
//  2. At any one position at most one keyword is *valid*: a shorter keyword
//     needs a tag terminator (whitespace, '>', '/') right after it, exactly
//     where a longer keyword sharing the prefix needs a tagname character.
//     The serial engine's longest-first verification (Abstract vs
//     AbstractText) therefore resolves to the same unique keyword the
//     scanner records.

// Candidate is one verified keyword occurrence found by a segment scan: the
// unique keyword that is valid at Pos, together with the resolved end of its
// tag. Candidates are reported in strictly increasing Pos order and never
// overlap.
//
// A Candidate holds no pointers — the keyword is an integer ID into the
// scanning ScanPlan's union vocabulary (Keywords and Tokens order), and a
// failure is a kind whose error Err rebuilds from Pos — so candidate lists
// are 32 bytes an entry, never zeroed or scanned by the garbage collector,
// and the replay selects or skips an entry with one table load.
type Candidate struct {
	// Pos is the absolute input offset of the '<' starting the keyword.
	Pos int64
	// TagEnd is the absolute offset of the tag's closing '>' (valid only
	// when Complete is true and Fail is FailNone).
	TagEnd int64
	// Kw is the keyword's index in the scanning ScanPlan's Keywords (and
	// Tokens) order.
	Kw int32
	// KwLen is the keyword length in bytes.
	KwLen int32
	// Bachelor reports a "/>" tag end (always false for closing tokens,
	// mirroring the serial engine).
	Bachelor bool
	// Complete reports that the tag-end scan finished within the scanned
	// data — either successfully (TagEnd/Bachelor are valid) or definitely
	// (Fail is set). When false, the tag straddles the segment's data end
	// and the stitcher must resume the scan in the following segment.
	Complete bool
	// Fail is the failure the serial engine would report if it selected
	// this candidate (tag longer than MaxTagLength, or end of input inside
	// the tag). It must only be surfaced — through Err — if the candidate
	// is actually selected.
	Fail FailKind
}

// FailKind classifies a candidate's tag-end failure. Both failures are
// determined by the tag's start offset, so the kind and Pos rebuild the
// exact error. The values are also the persisted sidecar encoding
// (internal/index) and must not be renumbered.
type FailKind uint8

const (
	// FailNone marks a candidate whose tag end resolved (or is still
	// pending, when Complete is false).
	FailNone FailKind = iota
	// FailTagTooLong marks a tag with no '>' within MaxTagLength bytes.
	FailTagTooLong
	// FailEOFInsideTag marks a tag cut off by the end of the input.
	FailEOFInsideTag
)

// Err returns the error the serial engine reports when it selects the
// candidate: nil for FailNone, otherwise the position-determined tag error.
func (c Candidate) Err() error {
	switch c.Fail {
	case FailTagTooLong:
		return TagTooLongError(c.Pos)
	case FailEOFInsideTag:
		return EOFInsideTagError(c.Pos)
	}
	return nil
}

// ScanPlan is the immutable scan-side companion of one or more Plans: the
// union of every state's frontier vocabulary across every plan, bucketed for
// anchored verification. Every keyword starts with '<', so the scan does not
// need a general multi-keyword matcher at all: it hops from '<' to '<' with
// the vectorized bytes.IndexByte and verifies the handful of keywords whose
// first tagname byte matches — which is also what keeps the speculation
// overhead low enough for the parallel mode to win. Like the Plan, a
// ScanPlan is built once and shared read-only by any number of segment
// scanners.
//
// The candidate stream a ScanPlan produces is a sound and complete oracle
// for ANY runtime automaton whose vocabulary is a subset of the scanned
// union (see the invariants above): this is the seam the unified pipeline
// (internal/pipeline) builds on, for one plan (intra-document parallelism)
// and for K merged plans (multi-query sharing) alike.
type ScanPlan struct {
	plan *Plan
	// open[c] holds the keywords "<c…" and closing[c] the keywords "</c…",
	// longest first, indexed by the first tagname byte.
	open, closing [256][]scanKeyword
	// keywords is the union vocabulary in canonical order (longest first,
	// ties lexicographic — the bucket insertion order), and a candidate's Kw
	// indexes it; tokens[i] is the tag token of keywords[i]. fp is the
	// FNV-1a fingerprint of the list. Together they identify the vocabulary
	// a persisted candidate index was built for (internal/index).
	keywords []string
	tokens   []glushkov.Token
	fp       uint64
	count    int
	maxKw    int
	memSize  int64
}

type scanKeyword struct {
	pattern []byte
	// id is the keyword's index in the canonical order, stamped into every
	// candidate as Kw; closing reports a "</x" keyword.
	id      int32
	closing bool
	// word and mask hold the first min(len(pattern), 8) pattern bytes as a
	// little-endian word: loading the 8 input bytes at the anchor and testing
	// load&mask == word verifies those bytes in a single branch-free compare
	// (the SWAR kernel's short-keyword verification; see scan_swar.go).
	// Patterns longer than 8 bytes compare their tail with bytes.Equal.
	word, mask uint64
}

// NewScanPlan derives the global-vocabulary scan tables from a compiled
// plan.
func NewScanPlan(p *Plan) *ScanPlan { return NewScanPlanUnion([]*Plan{p}) }

// NewScanPlanUnion derives one set of scan tables from the union of several
// plans' vocabularies. A keyword determines its token ("<x…" is the opening
// token x, "</x…" the closing token x) independently of the plan that
// contributed it, so merging vocabularies never creates a conflict: the
// shared candidate stream reports each occurrence once, and every consumer
// automaton recognizes exactly the candidates whose token its current state
// searches for. This is what lets K queries share a single document scan.
func NewScanPlanUnion(plans []*Plan) *ScanPlan {
	if len(plans) == 0 {
		panic("core: NewScanPlanUnion needs at least one plan")
	}
	tokens := make(map[string]glushkov.Token)
	var order []string
	for _, p := range plans {
		for _, st := range p.table.States {
			for _, kw := range st.Vocabulary {
				if _, ok := tokens[kw.Keyword]; !ok {
					tokens[kw.Keyword] = kw.Token
					order = append(order, kw.Keyword)
				}
			}
		}
	}
	// Longest first (ties: lexicographic), so each bucket resolves prefix
	// collisions the same way the serial engine's verifyAt does.
	sort.Slice(order, func(a, b int) bool {
		if len(order[a]) != len(order[b]) {
			return len(order[a]) > len(order[b])
		}
		return order[a] < order[b]
	})
	sp := &ScanPlan{plan: plans[0], count: len(order), keywords: order, tokens: make([]glushkov.Token, len(order))}
	sp.fp = FingerprintKeywords(order)
	sp.memSize = 2 * 256 * 24 // the two bucket arrays (slice headers)
	for id, kw := range order {
		tok := tokens[kw]
		sp.tokens[id] = tok
		sk := scanKeyword{pattern: []byte(kw), id: int32(id), closing: tok.Close}
		for b := 0; b < len(sk.pattern) && b < 8; b++ {
			sk.word |= uint64(sk.pattern[b]) << (8 * b)
			sk.mask |= 0xFF << (8 * b)
		}
		if len(kw) > sp.maxKw {
			sp.maxKw = len(kw)
		}
		sp.memSize += int64(len(kw)+len(tok.Name)) + 48
		if sk.closing {
			// "</x…": bucket by the byte after the slash.
			c := sk.pattern[2]
			sp.closing[c] = append(sp.closing[c], sk)
		} else {
			c := sk.pattern[1]
			sp.open[c] = append(sp.open[c], sk)
		}
	}
	return sp
}

// Plan returns the execution plan the scan tables were derived from (the
// first plan, for tables built over a union).
func (sp *ScanPlan) Plan() *Plan { return sp.plan }

// MemSize returns the approximate footprint of the scan tables in bytes:
// what a union scan adds on top of the per-query plans it was derived from.
// Cache implementations that already weigh the underlying plans should count
// only this for a merged entry.
func (sp *ScanPlan) MemSize() int64 { return sp.memSize }

// Keywords returns the union vocabulary in the scan tables' canonical order
// (longest first, ties lexicographic). The slice is shared read-only state of
// the plan — callers must not mutate it.
func (sp *ScanPlan) Keywords() []string { return sp.keywords }

// Tokens returns the tag token of every union keyword, indexed like
// Keywords — the table that turns a candidate's Kw back into its token. The
// slice is shared read-only state of the plan — callers must not mutate it.
func (sp *ScanPlan) Tokens() []glushkov.Token { return sp.tokens }

// Fingerprint returns the FNV-1a hash of the canonical keyword list: the
// identity of the scanned vocabulary. Two ScanPlans with equal fingerprints
// search for exactly the same keyword set, so a candidate stream recorded
// under one replays under the other (internal/index keys its sidecars by
// this value).
func (sp *ScanPlan) Fingerprint() uint64 { return sp.fp }

// FingerprintKeywords hashes a keyword list with FNV-1a, separating entries
// with a NUL byte (keywords are tag prefixes and never contain NUL).
func FingerprintKeywords(keywords []string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, kw := range keywords {
		for i := 0; i < len(kw); i++ {
			h = (h ^ uint64(kw[i])) * prime64
		}
		h *= prime64 // the NUL separator (h ^ 0x00 == h)
	}
	return h
}

// MaxKeywordLen returns the length of the longest keyword in the union
// vocabulary. Callers scanning non-final segments must provide at least
// MaxKeywordLen()+1 bytes of lookahead past the owned range so straddling
// keywords and their terminator byte are always in view.
func (sp *ScanPlan) MaxKeywordLen() int { return sp.maxKw }

// KeywordCount returns the size of the union vocabulary.
func (sp *ScanPlan) KeywordCount() int { return sp.count }

// SegmentScanner scans byte segments for candidates against one ScanPlan.
// It is cheap (scratch state only; the tables live in the shared ScanPlan)
// and not safe for concurrent use: give each worker goroutine its own.
type SegmentScanner struct {
	sp *ScanPlan
	// match accumulates the string matchers' counters across Scan calls.
	match stringmatch.Counters
	// inspected counts the characters examined by verification and
	// tag-end scanning, the scan-side analogue of the serial engine's
	// non-matcher CharComparisons.
	inspected int64
	// rejected counts raw keyword matches whose terminator check failed
	// (the scan-side analogue of the serial engine's RejectedMatches).
	rejected int64
}

// NewScanner returns a fresh scanner over the plan's union vocabulary.
func (sp *ScanPlan) NewScanner() *SegmentScanner { return &SegmentScanner{sp: sp} }

// Counters returns the instrumentation accumulated across all Scan calls:
// the string-matcher counters, the verification/tag-scan characters
// examined, and the rejected raw matches.
func (s *SegmentScanner) Counters() (m stringmatch.Counters, inspected, rejected int64) {
	return s.match, s.inspected, s.rejected
}

// Scan appends to dst every candidate whose keyword starts within the owned
// range [base, base+owned) and returns the extended slice. data[0] is the
// byte at absolute input offset base. When final is false — data does not
// extend to the end of the input — the caller must supply at least
// MaxKeywordLen()+1 bytes past owned, so that a keyword starting on the
// last owned byte still fits together with its terminator; tag ends may
// nevertheless run past the data (Candidate.Complete is then false). When
// final is true, running out of data mirrors the serial engine exactly: a
// keyword without its terminator byte is invalid, a tag without '>' is the
// "unexpected end of input inside tag" error.
//
// Scan runs the SWAR multi-anchor kernel (scan_swar.go) unless the
// environment variable SMP_SCAN_KERNEL=scalar selects the byte-at-a-time
// reference kernel. Both kernels produce identical candidate streams and
// identical counters — ScanScalar is kept as the differential baseline.
func (s *SegmentScanner) Scan(dst []Candidate, data []byte, base int64, owned int, final bool) []Candidate {
	if owned > len(data) {
		owned = len(data)
	}
	if s.sp.count == 0 || owned <= 0 {
		return dst
	}
	if useScalarKernel {
		return s.scanScalar(dst, data, base, owned, final)
	}
	return s.scanSWAR(dst, data, base, owned, final)
}

// ScanScalar is Scan on the byte-at-a-time reference kernel —
// bytes.IndexByte anchor hops and bytes.Equal verification — regardless of
// the kernel selection. It is the differential baseline the SWAR kernel is
// fuzzed and benchmarked against (FuzzScanEquivalence, smpbench -scan):
// candidate streams and counters must be identical between the two.
func (s *SegmentScanner) ScanScalar(dst []Candidate, data []byte, base int64, owned int, final bool) []Candidate {
	if owned > len(data) {
		owned = len(data)
	}
	if s.sp.count == 0 || owned <= 0 {
		return dst
	}
	return s.scanScalar(dst, data, base, owned, final)
}

// scanScalar is the reference anchor loop: hop from '<' to '<' with the
// vectorized bytes.IndexByte and verify each anchor byte by byte.
func (s *SegmentScanner) scanScalar(dst []Candidate, data []byte, base int64, owned int, final bool) []Candidate {
	i := 0
	for i < owned {
		j := bytes.IndexByte(data[i:owned], '<')
		if j < 0 {
			break
		}
		pos := i + j
		// The hop between anchors is the scan-side analogue of a matcher
		// shift; the anchor byte itself is one inspected character.
		s.match.Shifts++
		s.match.ShiftTotal += int64(j + 1)
		s.match.Comparisons++
		if c, ok := s.verifyScalar(data, base, pos, final); ok {
			dst = append(dst, c)
		}
		// Occurrences never overlap (no keyword has an interior '<'), so
		// the next anchor search can simply resume past this one.
		i = pos + 1
	}
	return dst
}

// verifyScalar finds the unique keyword valid at the '<' anchor pos (longest
// first within its bucket, as the serial engine's verifyAt does) and
// resolves its tag end.
func (s *SegmentScanner) verifyScalar(data []byte, base int64, pos int, final bool) (Candidate, bool) {
	// The keyword plus its terminator byte must be in view. At the end of
	// the input this mirrors the serial engine's rejection; before it, the
	// caller's lookahead guarantee keeps every straddling keyword visible.
	if pos+1 >= len(data) {
		return Candidate{}, false
	}
	var bucket []scanKeyword
	if data[pos+1] == '/' {
		if pos+2 >= len(data) {
			return Candidate{}, false
		}
		bucket = s.sp.closing[data[pos+2]]
	} else {
		bucket = s.sp.open[data[pos+1]]
	}
	if len(bucket) > 0 {
		s.inspected++
	}
	for k := range bucket {
		kw := &bucket[k]
		end := pos + len(kw.pattern)
		if end >= len(data) {
			continue
		}
		s.inspected += int64(len(kw.pattern)) + 1
		if !bytes.Equal(data[pos+1:end], kw.pattern[1:]) {
			continue
		}
		if !isTagTerminator(data[end], kw.closing) {
			s.rejected++
			continue
		}
		return s.candidate(kw, data, base, pos, end, final), true
	}
	return Candidate{}, false
}

// candidate builds the candidate of a verified keyword and resolves its tag
// end; both kernels report through it.
func (s *SegmentScanner) candidate(kw *scanKeyword, data []byte, base int64, pos, end int, final bool) Candidate {
	c := Candidate{Pos: base + int64(pos), Kw: kw.id, KwLen: int32(len(kw.pattern))}
	s.scanTagEnd(data, base, pos, end, final, &c)
	if kw.closing {
		c.Bachelor = false
	}
	return c
}

// scanTagEnd resolves the tag's closing '>' within the available data,
// mirroring the serial engine's quote handling and length bound.
func (s *SegmentScanner) scanTagEnd(data []byte, base int64, tagStart, from int, final bool, c *Candidate) {
	// inspected advances once per byte examined; it is derived from the
	// loop index at each exit instead of incremented per byte — the
	// read-modify-write on s.inspected would dominate this loop.
	var ts TagScan
	for i := from; i < len(data); i++ {
		done, bachelor := ts.Feed(data[i])
		if done {
			s.inspected += int64(i - from + 1)
			c.TagEnd = base + int64(i)
			c.Bachelor = bachelor
			c.Complete = true
			return
		}
		if i+1-tagStart > MaxTagLength {
			s.inspected += int64(i - from + 1)
			c.Complete = true
			c.Fail = FailTagTooLong
			return
		}
	}
	if len(data) > from {
		s.inspected += int64(len(data) - from)
	}
	if final {
		c.Complete = true
		c.Fail = FailEOFInsideTag
	}
}

// TagScan is the incremental scan for a tag's closing '>': it tracks quoted
// attribute values and whether the character before the '>' was '/' (a
// bachelor tag). It is the byte-at-a-time form of the serial engine's
// tag-end scan, shared with the split stitcher's cross-segment resolution.
type TagScan struct {
	quote        byte
	lastNonQuote byte
}

// Feed advances the scan over c. done reports that c closed the tag;
// bachelor is meaningful only when done is true.
func (t *TagScan) Feed(c byte) (done, bachelor bool) {
	if t.quote != 0 {
		if c == t.quote {
			t.quote = 0
		}
		return false, false
	}
	switch c {
	case '"', '\'':
		t.quote = c
	case '>':
		return true, t.lastNonQuote == '/'
	}
	t.lastNonQuote = c
	return false, false
}
