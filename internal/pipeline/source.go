package pipeline

import (
	"bytes"
	"context"
	"io"
	"sync"

	"smp/internal/core"
)

// mseg is one scanned slice of the input: the bytes from absolute offset
// base onward, of which the first owned bytes belong to this segment (the
// rest is the lookahead the scanner needs for keywords starting on the last
// owned bytes), plus the candidates found within the owned range.
// Consecutive segments' owned ranges tile the input without gaps or
// overlaps, so candidate ownership is unambiguous.
type mseg struct {
	base  int64
	data  []byte
	owned int
	final bool
	cands []core.Candidate

	// sentinelErr is a terminal read or context error; it travels as a
	// sentinel segment (owned == 0) after the last data segment of a
	// parallel source. The serial source reports its error directly.
	sentinelErr error
	// scanned is closed by the scanning worker of a parallel source once
	// cands is filled; nil for serial segments (scanned in-line).
	scanned chan struct{}
	// skipped marks a segment whose scan was skipped because the run
	// context was cancelled; its empty candidate list must read as a
	// cancellation, never as a clean end of input. Written by the scanning
	// worker before scanned closes.
	skipped bool
}

// end returns the absolute offset one past the segment's owned bytes — the
// canonical coverage boundary.
func (s *mseg) end() int64 { return s.base + int64(s.owned) }

// source is the segment stream a driver replays: an in-order sequence of
// scanned segments whose owned ranges tile the input. The two
// implementations are the serial in-line scan and the W-worker parallel
// scan; the driver cannot tell them apart, which is exactly the point —
// every cell of the K×W grid replays one stream shape.
type source interface {
	// next returns the next scanned in-order segment, or nil when the stream
	// ended; err then reports the terminal failure (nil at a clean end).
	next() *mseg
	// err returns the terminal read or context error once next returned nil.
	err() error
	// recycle returns a retired segment's buffers for reuse. The caller
	// guarantees no query still references the segment's data.
	recycle(*mseg)
	// close unwinds the source — stopping any reader and worker goroutines —
	// and folds the scan-side counters (bytes read, comparisons, shifts,
	// rejected matches) into st. It must be called exactly once, after the
	// last next.
	close(st *core.Stats)
}

// serialSource cuts the input into overlapping segments and scans each
// in-line against the union vocabulary — the W <= 1 shape of the shared
// pass: no goroutines, recycled buffers, and reading stops as soon as the
// driver stops asking. It either reads a stream or slices an in-memory
// document in place; both cut the same segments at the same offsets.
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
// cancelled run stops before its next read. A mid-stream read error emits
// the bytes read so far as a non-final trailing segment first — anything
// unresolved at its edge (a truncated keyword or tag) then chases the next
// segment, finds none, and surfaces the underlying error exactly where the
// serial window would.
func (s *serialSource) next() *mseg {
	if s.done {
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		s.done = true
		s.terminal = err
		return nil
	}
	want := s.segSize + s.overlap
	if s.r == nil {
		return s.slice(want)
	}
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
			s.done = true
			return s.emit(len(s.carry), true)
		default:
			s.done = true
			s.terminal = err
			return s.emit(len(s.carry), false)
		}
	}
	return s.emit(s.segSize, false)
}

// slice cuts the next segment out of the in-memory document where a read
// of want bytes would have ended it: a full segment plus its lookahead
// while that much remains, the whole remainder as the final segment
// otherwise. Nothing is copied.
func (s *serialSource) slice(want int) *mseg {
	rest := s.doc[s.base:]
	seg := &mseg{base: s.base, data: rest, owned: len(rest), final: true}
	if len(rest) < want {
		s.done = true
	} else {
		seg.data, seg.owned, seg.final = rest[:want], s.segSize, false
	}
	s.bytesRead = s.base + int64(len(seg.data))
	s.base += int64(seg.owned)
	return s.scan(seg)
}

// emit cuts a segment owning the first owned bytes of carry, scans it, and
// carries the tail (the lookahead shared with the next segment) over into a
// fresh buffer.
func (s *serialSource) emit(owned int, final bool) *mseg {
	seg := &mseg{base: s.base, data: s.carry, owned: owned, final: final}
	tail := s.carry[owned:]
	var next []byte
	if n := len(s.freeData); n > 0 {
		next, s.freeData = s.freeData[n-1], s.freeData[:n-1]
	}
	if cap(next) < s.segSize+s.overlap {
		next = make([]byte, 0, s.segSize+s.overlap)
	}
	s.carry = append(next[:0], tail...)
	s.base += int64(owned)
	return s.scan(seg)
}

// scan fills the segment's candidate list, reusing a retired list.
func (s *serialSource) scan(seg *mseg) *mseg {
	var cands []core.Candidate
	if n := len(s.freeCands); n > 0 {
		cands, s.freeCands = s.freeCands[n-1], s.freeCands[:n-1]
	}
	seg.cands = s.sc.Scan(cands[:0], seg.data, seg.base, seg.owned, seg.final)
	return seg
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
	m, inspected, rejected := s.sc.Counters()
	st.BytesRead = s.bytesRead
	st.CharComparisons += m.Comparisons + inspected
	st.Shifts += m.Shifts
	st.ShiftTotal += m.ShiftTotal
	st.RejectedMatches += rejected
}

// parallelSource scans segments on W worker goroutines. A reader goroutine
// (or an up-front in-memory segmentation) cuts the input at '<' boundaries
// and feeds each segment to a worker (jobs) and, in input order, to the
// driver (ordered, the bounded reorder buffer); workers fill each segment's
// candidate list and close its scanned channel. The driver's pulls observe
// the run context directly, so a cancelled projection unblocks without
// waiting for the reader to notice.
type parallelSource struct {
	ctx     context.Context
	scan    *core.ScanPlan
	workers int
	segSize int
	overlap int

	jobs    chan *mseg
	ordered chan *mseg
	quit    chan struct{}

	readerWG sync.WaitGroup
	scanWG   sync.WaitGroup
	mu       sync.Mutex
	scanners []*core.SegmentScanner

	// bytesRead is written by the reader goroutine (or startBuffered) and
	// read after readerWG.Wait in close.
	bytesRead int64

	done     bool
	terminal error
}

func newParallelSource(ctx context.Context, scan *core.ScanPlan, workers, segSize, overlap int) *parallelSource {
	return &parallelSource{
		ctx:     ctx,
		scan:    scan,
		workers: workers,
		segSize: segSize,
		overlap: overlap,
	}
}

// spawnScanners starts the worker pool scanning segments from jobs (closing
// each segment's scanned channel) until the channel closes. A cancelled ctx
// turns the remaining scans into no-ops — each segment's scanned channel is
// still closed, so a driver that has not yet observed the cancellation
// never blocks on a skipped segment (its empty candidate list just stops
// the replay until the terminal sentinel arrives).
func (p *parallelSource) spawnScanners() {
	for w := 0; w < p.workers; w++ {
		p.scanWG.Add(1)
		go func() {
			defer p.scanWG.Done()
			sc := p.scan.NewScanner()
			for seg := range p.jobs {
				if p.ctx.Err() == nil {
					seg.cands = sc.Scan(seg.cands, seg.data, seg.base, seg.owned, seg.final)
				} else {
					seg.skipped = true
				}
				close(seg.scanned)
			}
			p.mu.Lock()
			p.scanners = append(p.scanners, sc)
			p.mu.Unlock()
		}()
	}
}

// startStreaming launches the reader goroutine over src; first holds the
// block Project already read while probing the input size.
func (p *parallelSource) startStreaming(src io.Reader, first []byte) {
	p.jobs = make(chan *mseg, p.workers)
	// ordered is the bounded reorder buffer: the reader blocks once this
	// many segments are in flight, which bounds memory to
	// O(inflight * (segSize+overlap)) however far scanning runs ahead of
	// the replay.
	p.ordered = make(chan *mseg, 2*p.workers+2)
	p.quit = make(chan struct{})
	p.readerWG.Add(1)
	go func() {
		defer p.readerWG.Done()
		p.read(src, first)
	}()
	p.spawnScanners()
}

// startBuffered segments an in-memory document up front, aliasing doc — no
// reader goroutine, no segment copies; the reorder buffer degenerates to a
// prefilled queue.
func (p *parallelSource) startBuffered(doc []byte) {
	var segs []*mseg
	for base := 0; base < len(doc); {
		rest := doc[base:]
		if len(rest) <= p.segSize+p.overlap {
			segs = append(segs, &mseg{
				base: int64(base), data: rest, owned: len(rest),
				final: true, scanned: make(chan struct{}),
			})
			break
		}
		boundary := cut(rest, p.segSize)
		segs = append(segs, &mseg{
			base: int64(base), data: rest[:boundary+p.overlap], owned: boundary,
			scanned: make(chan struct{}),
		})
		base += boundary
	}
	p.jobs = make(chan *mseg, len(segs))
	p.ordered = make(chan *mseg, len(segs))
	for _, seg := range segs {
		p.jobs <- seg
		p.ordered <- seg
	}
	close(p.jobs)
	close(p.ordered)
	p.bytesRead = int64(len(doc))
	p.spawnScanners()
}

// read cuts the input into segments and feeds them to the workers and, in
// order, to the driver. carry holds the bytes already read past the
// previous boundary (the probed first block on entry).
func (p *parallelSource) read(src io.Reader, carry []byte) {
	defer close(p.jobs)
	defer close(p.ordered)
	p.bytesRead = int64(len(carry))

	var base int64
	eof := false
	for {
		// The context check sits at the segment boundary — the parallel
		// pipeline's analogue of the serial window's chunk boundary. The
		// carry bytes are dropped: after a cancel the workers skip their
		// scans and the driver fails at its next pull, so only the terminal
		// sentinel carrying the error matters.
		if err := p.ctx.Err(); err != nil {
			p.sendSentinel(err)
			return
		}
		if want := p.segSize + p.overlap; !eof && len(carry) < want {
			if cap(carry) < want {
				grown := make([]byte, len(carry), want)
				copy(grown, carry)
				carry = grown
			}
			m, err := io.ReadFull(src, carry[len(carry):want])
			carry = carry[:len(carry)+m]
			p.bytesRead += int64(m)
			switch err {
			case nil:
			case io.EOF, io.ErrUnexpectedEOF:
				eof = true
			default:
				// Scan what was read before the error (the serial engine
				// would have processed it), then surface the error as a
				// terminal sentinel. The data segment is deliberately NOT
				// final: anything unresolved at its edge (a truncated
				// keyword or tag) then chases the next segment and finds
				// the sentinel, so the driver reports the underlying read
				// error — as the serial window would — rather than a
				// synthesized end-of-input error.
				if !p.emit(&mseg{base: base, data: carry, owned: len(carry), scanned: make(chan struct{})}) {
					return
				}
				p.sendSentinel(err)
				return
			}
		}
		if eof {
			p.emit(&mseg{base: base, data: carry, owned: len(carry), final: true, scanned: make(chan struct{})})
			return
		}
		boundary := cut(carry, p.segSize)
		seg := &mseg{
			base:    base,
			data:    carry[:boundary+p.overlap],
			owned:   boundary,
			scanned: make(chan struct{}),
		}
		if !p.emit(seg) {
			return
		}
		// The tail (including the lookahead the segment shares) becomes the
		// next segment's head. It must be copied: the dispatched segment's
		// data aliases the old buffer, which workers read concurrently.
		next := make([]byte, len(carry)-boundary, p.segSize+p.overlap)
		copy(next, carry[boundary:])
		base += int64(boundary)
		carry = next
	}
}

// emit hands a segment to a worker and to the driver's reorder buffer. It
// reports false when the run has been unwound.
func (p *parallelSource) emit(seg *mseg) bool {
	select {
	case p.jobs <- seg:
	case <-p.quit:
		return false
	}
	select {
	case p.ordered <- seg:
	case <-p.quit:
		return false
	}
	return true
}

// sendSentinel emits the terminal error sentinel to the driver.
func (p *parallelSource) sendSentinel(err error) {
	sentinel := &mseg{sentinelErr: err, scanned: make(chan struct{})}
	close(sentinel.scanned)
	select {
	case p.ordered <- sentinel:
	case <-p.quit:
	}
}

// next pulls the next in-order segment, waiting for its scan to finish. It
// returns nil when the input is exhausted, the source failed, or the run
// context is cancelled (terminal then carries ctx.Err(), so a cancelled
// projection fails without waiting for the reader to notice).
func (p *parallelSource) next() *mseg {
	if p.done {
		return nil
	}
	var seg *mseg
	var ok bool
	select {
	case seg, ok = <-p.ordered:
	case <-p.ctx.Done():
		p.done = true
		p.terminal = p.ctx.Err()
		return nil
	}
	if !ok {
		p.done = true
		return nil
	}
	if seg.sentinelErr != nil {
		p.done = true
		p.terminal = seg.sentinelErr
		return nil
	}
	<-seg.scanned
	if seg.skipped {
		// The worker skipped this scan because the run was cancelled after
		// the reader had already finished cleanly — without this check the
		// replay would mistake the missing candidates for a short document.
		p.done = true
		p.terminal = p.ctx.Err()
		return nil
	}
	return seg
}

func (p *parallelSource) err() error { return p.terminal }

// recycle is a no-op: parallel segments either alias the caller's document
// (buffered runs) or are allocated by the reader, which cannot safely reuse
// buffers the replay side releases.
func (p *parallelSource) recycle(*mseg) {}

// close unwinds the pipeline: stop the reader (it may be blocked on a full
// channel or a slow src), let the workers drain the remaining jobs, discard
// whatever the driver did not consume, then fold the workers' scan counters
// and the reader's byte count into st.
func (p *parallelSource) close(st *core.Stats) {
	if p.quit != nil {
		close(p.quit)
	}
	for range p.ordered {
	}
	p.readerWG.Wait()
	p.scanWG.Wait()
	st.BytesRead = p.bytesRead
	for _, sc := range p.scanners {
		m, inspected, rejected := sc.Counters()
		st.CharComparisons += m.Comparisons + inspected
		st.Shifts += m.Shifts
		st.ShiftTotal += m.ShiftTotal
		st.RejectedMatches += rejected
	}
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
