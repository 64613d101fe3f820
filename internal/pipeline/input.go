package pipeline

import (
	"bytes"
	"io"

	"smp/internal/core"
)

// mseg is one scanned slice of the input: the bytes from absolute offset
// base onward, of which the first owned bytes belong to this segment (the
// rest is the lookahead the scanner needs for keywords starting on the last
// owned bytes), plus the candidates found within the owned range.
// Consecutive segments' owned ranges tile the input without gaps or
// overlaps, so candidate ownership is unambiguous.
type mseg struct {
	base    int64
	data    []byte
	owned   int
	final   bool
	cands   []core.Candidate
	scanned bool // cands are filled (set under the pool mutex)
}

// end returns the absolute offset one past the segment's owned bytes — the
// canonical coverage boundary.
func (s *mseg) end() int64 { return s.base + int64(s.owned) }

// input cuts a run's document into in-order segments whose owned ranges
// tile it. It either reads a stream or slices an in-memory document in
// place; both cut the same segments at the same offsets. A scanned input
// leaves each segment for a pool worker to scan; a replayed one hands each
// segment out with its slice of a stored candidate stream. Only the holder
// of the pool's producer token cuts.
type input struct {
	// r is the stream the input reads; when it is nil the segments alias
	// doc instead, an in-memory document (a caller's slice or a read-only
	// file mapping).
	r   io.Reader
	doc []byte
	// replay marks a stored candidate stream (internal/index): stored holds
	// the candidates not yet handed out, and no scanner runs at all. Every
	// stored candidate is Complete (sidecars are built from a final scan),
	// so segment data is read only for output copies, never to resolve tag
	// ends — the segments need no lookahead.
	replay bool
	stored []core.Candidate

	segSize int
	overlap int
	carry   []byte // bytes already read past the previous segment boundary
	base    int64
	done    bool
	// terminal is the read error observed at the last data segment; nil at
	// a clean end of input.
	terminal error

	bytesRead int64
	// freeData and freeCands recycle retired segments' buffers, so the
	// steady state allocates nothing per segment.
	freeData  [][]byte
	freeCands [][]core.Candidate
}

// pop takes the last buffer off a free list, or returns nil.
func pop[T any](free *[][]T) (buf []T) {
	if n := len(*free); n > 0 {
		buf, *free = (*free)[n-1], (*free)[:n-1]
	}
	return buf
}

// cutNext cuts the next segment and sets done after the last. An in-memory
// document is sliced where a read would have ended the segment. A stream is
// read into carry, and the bytes past the cut move into buf (a retired
// segment's buffer, or nil). A mid-stream read error emits the bytes read
// so far as a non-final last segment — anything unresolved at its edge (a
// truncated keyword or tag) then chases the next segment, finds none, and
// surfaces the underlying error exactly where the serial window would.
func (s *input) cutNext(buf []byte) *mseg {
	want := s.segSize + s.overlap
	if s.r == nil {
		rest := s.doc[s.base:]
		seg := &mseg{base: s.base, data: rest, owned: len(rest), final: true}
		if len(rest) < want {
			s.done = true
		} else {
			seg.owned = cut(rest, s.segSize)
			seg.data, seg.final = rest[:seg.owned+s.overlap], false
		}
		if s.replay {
			n := 0
			for n < len(s.stored) && s.stored[n].Pos < seg.end() {
				n++
			}
			seg.cands, s.stored, seg.scanned = s.stored[:n:n], s.stored[n:], true
		} else {
			s.bytesRead = s.base + int64(len(seg.data))
		}
		s.base += int64(seg.owned)
		return seg
	}
	owned, final := -1, false
	if len(s.carry) < want {
		if cap(s.carry) < want {
			grown := make([]byte, len(s.carry), want)
			copy(grown, s.carry)
			s.carry = grown
		}
		n, err := io.ReadFull(s.r, s.carry[len(s.carry):want])
		s.carry = s.carry[:len(s.carry)+n]
		s.bytesRead += int64(n)
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			s.done, owned, final = true, len(s.carry), true
		default:
			s.done, owned, s.terminal = true, len(s.carry), err
		}
	}
	if owned < 0 {
		owned = cut(s.carry, s.segSize)
	}
	seg := &mseg{base: s.base, data: s.carry[:min(len(s.carry), owned+s.overlap)], owned: owned, final: final}
	// The tail becomes the next segment's head, copied: the segment keeps
	// its buffer until it retires.
	if cap(buf) < want {
		buf = make([]byte, 0, want)
	}
	s.carry = append(buf[:0], s.carry[owned:]...)
	s.base += int64(owned)
	return seg
}

// recycle keeps a retired segment's buffers for reuse — except data that
// aliases the caller's document and candidates that alias a stored stream,
// which must never be written.
func (s *input) recycle(seg *mseg) {
	if s.r != nil {
		s.freeData = append(s.freeData, seg.data[:0])
	}
	if !s.replay {
		s.freeCands = append(s.freeCands, seg.cands[:0])
	}
}

// addScanCounters folds a scanner's counters into st.
func addScanCounters(st *core.Stats, sc *core.SegmentScanner) {
	m, inspected, rejected := sc.Counters()
	st.CharComparisons += m.Comparisons + inspected
	st.Shifts += m.Shifts
	st.ShiftTotal += m.ShiftTotal
	st.RejectedMatches += rejected
}

// cut picks the segment boundary: the offset of the last '<' at or before
// target, found by backing off from the nominal (even) segment end, so that
// keywords usually start exactly on a boundary and never straddle one. A
// '<' inside text or a quoted attribute value is also safe — the boundary
// only assigns candidate ownership, the scan itself is position-exhaustive
// — and if no '<' exists in (0, target] the nominal end is used as is.
func cut(buf []byte, target int) int {
	if target >= len(buf) {
		target = len(buf) - 1
	}
	// Exclude offset 0: a boundary must make progress.
	if i := bytes.LastIndexByte(buf[1:target+1], '<'); i >= 0 {
		return i + 1
	}
	return target
}
