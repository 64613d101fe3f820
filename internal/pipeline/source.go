package pipeline

import (
	"bytes"
	"context"
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
	scanned bool // a pool segment's cands are filled (under the pool mutex)
}

// end returns the absolute offset one past the segment's owned bytes — the
// canonical coverage boundary.
func (s *mseg) end() int64 { return s.base + int64(s.owned) }

// source is the segment stream a serial driver replays: an in-order
// sequence of scanned segments whose owned ranges tile the input. The two
// implementations are the in-line scan and the replay of a stored candidate
// stream; a W > 1 run cuts the same kind of segments in its pool instead.
type source interface {
	// next returns the next scanned in-order segment, or nil when the stream
	// ended; err then reports the terminal failure (nil at a clean end).
	next() *mseg
	// err returns the terminal read or context error once next returned nil.
	err() error
	// recycle returns a retired segment's buffers for reuse. The caller
	// guarantees no query still references the segment's data.
	recycle(*mseg)
	// close folds the scan-side counters (bytes read, comparisons, shifts,
	// rejected matches) into st. It must be called exactly once, after the
	// last next.
	close(st *core.Stats)
}

// serialSource cuts the input into overlapping segments and scans each
// in-line against the union vocabulary — the W <= 1 shape of the shared
// pass: no goroutines, recycled buffers, and reading stops as soon as the
// driver stops asking. It either reads a stream or slices an in-memory
// document in place; both cut the same segments at the same offsets. A
// pool run cuts its segments with it too (cutNext) and scans them itself.
type serialSource struct {
	ctx context.Context
	// r is the stream the source reads; when it is nil the segments alias
	// doc instead, an in-memory document (a caller's slice or a read-only
	// file mapping).
	r       io.Reader
	doc     []byte
	sc      *core.SegmentScanner
	segSize int
	overlap int
	// backoff ends each segment at the last '<' before its nominal end (see
	// cut) instead of at a fixed offset; pool runs set it.
	backoff bool
	carry   []byte // bytes already read past the previous segment boundary
	base    int64
	done    bool
	// terminal is the terminal failure — a read error or the run context's
	// error — observed after the last data segment was handed out; nil at a
	// clean end of input.
	terminal error

	bytesRead int64
	// freeData and freeCands recycle retired segments' buffers, so the
	// steady state allocates nothing per segment.
	freeData  [][]byte
	freeCands [][]core.Candidate
}

// newSerialSource builds the serial source over r, or over doc in place
// when r is nil.
func newSerialSource(ctx context.Context, r io.Reader, doc []byte, scan *core.ScanPlan, segSize int) *serialSource {
	overlap := scan.MaxKeywordLen() + 1
	return &serialSource{ctx: ctx, r: r, doc: doc, sc: scan.NewScanner(), segSize: segSize, overlap: overlap}
}

// next returns the next scanned segment, or nil when the input is
// exhausted. The context is checked here, at the segment boundary, so a
// cancelled run stops before its next read.
func (s *serialSource) next() *mseg {
	if s.done {
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		s.done = true
		s.terminal = err
		return nil
	}
	seg := s.cutNext(pop(&s.freeData))
	seg.cands = s.sc.Scan(pop(&s.freeCands), seg.data, seg.base, seg.owned, seg.final)
	return seg
}

// pop takes the last buffer off a free list, or returns nil.
func pop[T any](free *[][]T) (buf []T) {
	if n := len(*free); n > 0 {
		buf, *free = (*free)[n-1], (*free)[:n-1]
	}
	return buf
}

// cutNext cuts the next segment, unscanned, and sets done after the last.
// An in-memory document is sliced where a read would have ended the
// segment. A stream is read into carry, and the bytes past the cut move
// into buf (a retired segment's buffer, or nil). A mid-stream read error
// emits the bytes read so far as a non-final last segment — anything
// unresolved at its edge (a truncated keyword or tag) then chases the next
// segment, finds none, and surfaces the underlying error exactly where the
// serial window would.
func (s *serialSource) cutNext(buf []byte) *mseg {
	want := s.segSize + s.overlap
	if s.r == nil {
		rest := s.doc[s.base:]
		seg := &mseg{base: s.base, data: rest, owned: len(rest), final: true}
		if len(rest) < want {
			s.done = true
		} else {
			seg.owned = s.boundary(rest)
			seg.data, seg.final = rest[:seg.owned+s.overlap], false
		}
		s.bytesRead = s.base + int64(len(seg.data))
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
		owned = s.boundary(s.carry)
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

// boundary returns the owned length of a segment cut from a full buf.
func (s *serialSource) boundary(buf []byte) int {
	if s.backoff {
		return cut(buf, s.segSize)
	}
	return s.segSize
}

func (s *serialSource) err() error { return s.terminal }

// recycle keeps a retired segment's buffers for reuse — except data that
// aliases the caller's document, which must never be written.
func (s *serialSource) recycle(seg *mseg) {
	if s.r != nil {
		s.freeData = append(s.freeData, seg.data[:0])
	}
	s.freeCands = append(s.freeCands, seg.cands[:0])
}

func (s *serialSource) close(st *core.Stats) {
	st.BytesRead = s.bytesRead
	addScanCounters(st, s.sc)
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

// errorReader replays a reader's error so a failing source can be handed to
// the serial path prefix-first.
type errorReader struct{ err error }

func (r errorReader) Read([]byte) (int, error) { return 0, r.err }
