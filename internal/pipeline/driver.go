package pipeline

import (
	"cmp"
	"errors"
	"io"
	"time"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/glushkov"
	"smp/internal/projection"
)

// qrun is the replay state of one query: its automaton position, cursor,
// copy region and counters — exactly the per-run state of a standalone
// serial engine, minus the window (the pool's shared segment chain plays
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

// driver steps queries for one pool worker: each replay task hands it a
// snapshot of the pool's segments, from the claimed query's next segment to
// the last one cut, and the query consumes candidates from them until it
// has passed the scanned ones or needs input past the snapshot.
type driver struct {
	// tokens and closeOf are the engine's union keyword tables: a
	// candidate's token, and the closing keyword of a bachelor tag.
	tokens  []glushkov.Token
	closeOf []int32

	segs     []*mseg // the snapshot; segs[0] has sequence number firstSeq
	firstSeq int
	end      int64 // one past the snapshot's last owned byte
	// terminal is what a step reports when it needs input past the
	// snapshot: errPending while the input goes on, the input's terminal
	// error (nil at a clean end) once the snapshot holds the last segment.
	terminal error

	// timeWrites enables the per-write clock reads behind stitchDur (the
	// time inside output writes), which only traced runs pay for.
	timeWrites bool
	stitchDur  time.Duration
}

// errPending reports that a step needs input past the worker's snapshot:
// the query yields until the pool has cut further. It never leaves the
// package.
var errPending = errors.New("pipeline: input past the read frontier")

// snapshot hands the driver the segments segs, the first of which has
// sequence number first.
func (d *driver) snapshot(segs []*mseg, first int, terminal error) {
	d.segs, d.firstSeq, d.terminal, d.end = segs, first, terminal, 0
	if n := len(segs); n > 0 {
		d.end = segs[n-1].end()
	}
}

func (d *driver) lastSeq() int { return d.firstSeq + len(d.segs) - 1 }

// advance feeds k the candidates of its next segment, which the snapshot
// holds scanned, in position order. Candidates before the cursor (inside the
// previous tag, or skipped by a jump) and candidates whose keyword the
// current state does not search for (a -1 in its transition row) are
// invisible, exactly as they are to a standalone run. A finished segment
// flushes k's open copy region to its end (the next match starts at or
// after it). advance reports false when k yielded, its candidate
// unconsumed, because the tag reaches past the snapshot.
func (d *driver) advance(k *qrun) bool {
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
	return true
}

// selectCandidate performs one step of the Fig. 4 automaton for query k: the
// candidate is the first valid occurrence of the state's vocabulary at or
// after the cursor — the same occurrence the standalone engine's search
// would have matched. A bachelor tag is treated as its opening tag
// immediately followed by its closing tag. It reports false, with k
// untouched, when the tag reaches past the snapshot: copying it needs the
// segment owning its end.
func (d *driver) selectCandidate(k *qrun, c *core.Candidate) bool {
	tagEnd, bachelor, err := d.resolveTagEnd(k, c)
	if err == nil && tagEnd >= d.end {
		// Pending while the input goes on; a resolved tag cannot end past
		// the input's end.
		err = cmp.Or(d.terminal, io.ErrUnexpectedEOF)
	}
	if err == errPending {
		return false
	}
	if err != nil {
		d.fail(k, c.Pos, err)
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
				d.fail(k, c.Pos, core.TransitionError(k.q, glushkov.Closing(d.tokens[c.Kw].Name)))
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

// fail fails k on the tag starting at pos. Its open copy region is written
// up to the tag first, so the bytes before an error are the projection of
// the input before the failing tag, wherever the input was cut.
func (d *driver) fail(k *qrun, pos int64, err error) {
	if k.copyActive && k.copyStart < pos {
		d.writeRaw(k, k.copyStart, pos)
		k.copyStart = pos
	}
	k.err = err
	if k.writeErr != nil {
		k.err = k.writeErr
	}
}

// resolveTagEnd returns the candidate's tag end, resuming the scan across
// following segments when the tag straddles the candidate's data (the
// scanner then reported Complete == false). Running out of input mirrors the
// serial engine: a read error surfaces as such, a clean end of input inside
// a tag is the EOF-inside-tag error. A chase past the snapshot is suspended
// in k.
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
	for _, seg := range d.segs[k.seg-d.firstSeq:] {
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
	err := d.terminal
	switch err {
	case errPending:
		k.chase, k.chaseAt = ts, i
	case nil:
		err = core.EOFInsideTagError(c.Pos)
	}
	return 0, false, err
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

// writeRaw copies the input bytes [from, to) to k's output from the
// snapshot's owned ranges, walking only the segments the write spans (from
// is never before k's segment, and selectCandidate made sure the snapshot
// reaches past to).
func (d *driver) writeRaw(k *qrun, from, to int64) {
	if k.writeErr != nil || to <= from {
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
		d.write(k, seg.data[lo-seg.base:hi-seg.base])
		if k.writeErr != nil {
			return
		}
	}
}

// writeTag writes a synthesized tag to k's output.
func (d *driver) writeTag(k *qrun, tag []byte) {
	if k.writeErr == nil {
		d.write(k, tag)
	}
}

// write writes p to k's output, timing the write when the run is traced.
func (d *driver) write(k *qrun, p []byte) {
	var t0 time.Time
	if d.timeWrites {
		t0 = time.Now()
	}
	n, err := k.out.Write(p)
	if d.timeWrites {
		d.stitchDur += time.Since(t0)
	}
	k.stats.BytesWritten += int64(n)
	if err != nil {
		k.writeErr = err
	}
}
