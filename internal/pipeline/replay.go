package pipeline

import (
	"context"
	"fmt"
	"io"

	"smp/internal/core"
)

// replaySource feeds a persisted candidate stream (internal/index) into the
// driver: segments alias the document at fixed boundaries and each carries
// its slice of the stored candidates — no scanner runs at all. Every stored
// candidate is Complete (sidecars are built from a final scan), so the
// driver reads segment data only for output copies, never to resolve tag
// ends; this is what makes the replay byte-identical to a fresh scan while
// touching only the bytes the projection emits.
type replaySource struct {
	ctx     context.Context
	doc     []byte
	cands   []core.Candidate
	segSize int

	base     int
	candIdx  int
	done     bool
	terminal error
}

func (s *replaySource) next() *mseg {
	if s.done {
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		s.done = true
		s.terminal = err
		return nil
	}
	owned := len(s.doc) - s.base
	final := true
	if owned > s.segSize {
		owned, final = s.segSize, false
	}
	seg := &mseg{
		base:  int64(s.base),
		data:  s.doc[s.base : s.base+owned],
		owned: owned,
		final: final,
	}
	first := s.candIdx
	end := int64(s.base + owned)
	for s.candIdx < len(s.cands) && s.cands[s.candIdx].Pos < end {
		s.candIdx++
	}
	seg.cands = s.cands[first:s.candIdx]
	s.base += owned
	if final {
		s.done = true
	}
	return seg
}

func (s *replaySource) err() error { return s.terminal }

// recycle is a no-op: segments alias the caller's document and their
// candidate lists are shared subslices of the stored stream.
func (s *replaySource) recycle(*mseg) {}

func (s *replaySource) close(st *core.Stats) {
	// The replay reads the whole document from memory but runs no scan, so
	// only the byte count is reported; comparisons, shifts and rejections
	// were paid once, at index build time.
	st.BytesRead = int64(len(s.doc))
}

// Replay projects the K queries from a stored candidate stream instead of
// scanning doc: the driver steps each query's Fig. 4 automaton over cands
// exactly as it would over a fresh scan's stream, so the output is
// byte-identical to Project/ProjectBuffered by construction — provided cands
// is the complete verified occurrence stream of a vocabulary that subsumes
// every query (see internal/index: Covers gates this, Bind gates staleness).
//
// cands must be strictly increasing in Pos with every candidate Complete —
// the shape internal/index.Build records and Decode validates — and each
// Kw is an ID in this engine's union vocabulary, i.e. an index into
// e.ScanPlan().Keywords(). A stream stored for another vocabulary must be
// translated first (internal/index: CandidatesFor); a Kw outside the
// vocabulary fails the run before anything is written. The replay is
// sequential (opts.Workers is ignored: the scan was the parallel part, and
// it already happened); opts.ChunkSize sets the segment granularity, which
// only affects retirement batching, not output. doc may be nil when cands is
// empty — the replay then behaves like an empty document, which is how
// summary-proven "no keyword occurs" documents are skipped without touching
// their bytes (the caller patches Stats.BytesRead afterwards).
func (e *Engine) Replay(ctx context.Context, dsts []io.Writer, doc []byte, cands []core.Candidate, opts Options) (Result, error) {
	dsts, chunk, err := e.resolve(dsts, opts)
	if err != nil {
		return Result{}, err
	}
	nkw := int32(e.scan.KeywordCount())
	for i := range cands {
		if kw := cands[i].Kw; kw < 0 || kw >= nkw {
			return Result{}, fmt.Errorf("pipeline: replay candidate %d at offset %d: keyword ID %d outside the engine's %d-keyword vocabulary", i, cands[i].Pos, kw, nkw)
		}
	}
	segSize := chunk
	if segSize < 64 {
		segSize = 64
	}
	src := &replaySource{ctx: ctx, doc: doc, cands: cands, segSize: segSize}
	res, runErr := newDriver(e, dsts, src, opts.Trace).run()
	res.Scan.ZeroCopyInput = true
	return res, runErr
}
