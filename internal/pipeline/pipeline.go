package pipeline

import (
	"context"
	"fmt"
	"io"
	"os"

	"smp/internal/core"
	"smp/internal/glushkov"
	"smp/internal/mmapio"
	"smp/internal/obs"
)

// Options configures one projection run.
type Options struct {
	// Workers is the size of the worker pool sharing the segment scans and
	// the K replays: the caller plus Workers-1 goroutines. Values <= 1 run
	// on the caller alone.
	Workers int
	// SegmentSize is the nominal segment length in bytes of a run on more
	// than one worker, before the '<' boundary back-off; 0 selects Workers
	// times the chunk size (so one round of segments covers roughly one
	// window per worker). One-worker runs and replays ignore it — their
	// segment granularity is the chunk size.
	SegmentSize int
	// ChunkSize overrides the plans' streaming chunk size for this run: it
	// sets the one-worker and replay segment granularity, the default
	// segment sizing of larger pools and their lookahead. 0 selects the
	// largest chunk size among the merged plans.
	ChunkSize int
	// Trace, when non-nil, records each worker's scan and replay task spans
	// for Chrome trace-event output, and enables the per-write stitch timing
	// that untraced runs skip. The run and its output are the same with or
	// without it.
	Trace *obs.Trace
}

// Engine is a compiled K-query projection: K immutable per-query plans
// merged behind one union-vocabulary scan table, plus each plan's dense
// replay table over that union. An Engine is built once (New) and never
// mutated afterwards, so it is safe for concurrent use by multiple
// goroutines — every Project call allocates its own run state.
type Engine struct {
	plans []*core.Plan
	scan  *core.ScanPlan
	chunk int

	// replay[i] is plan i's automaton over the union keyword IDs.
	replay []replayTable
	// closeOf[kw] is the union ID of the closing keyword "</x" for an
	// opening keyword "<x" (the second half of a bachelor tag), or -1 when
	// kw is closing or "</x" is not in the union — no state then has a
	// transition on it.
	closeOf []int32
}

// replayTable is one plan's Fig. 4 automaton re-indexed for the replay: the
// transition table A over union keyword IDs instead of token maps, and the
// synthesized tag bytes of table T's CopyTag action.
type replayTable struct {
	// trans[q*nkw+kw] is state q's successor on keyword kw, or -1 when kw
	// is not in q's vocabulary (V). The compiled vocabulary of a state is
	// exactly the key set of its transitions, so every entry of V has a
	// successor and -1 means "invisible to this state".
	trans []int32
	nkw   int
	// tags[q] holds the serializations of the tag entering state q.
	tags []tagBytes
}

// tagBytes are the synthesized forms of one tag, precomputed as bytes so
// writing them never converts (io.WriteString allocates on writers without
// a WriteString method).
type tagBytes struct {
	open, close, bachelor []byte
}

// row returns state q's slice of the transition table.
func (t *replayTable) row(q int) []int32 { return t.trans[q*t.nkw : (q+1)*t.nkw] }

// newReplayTable compiles plan's automaton over the union vocabulary.
func newReplayTable(plan *core.Plan, ids map[string]int32) replayTable {
	table := plan.Table()
	nkw := len(ids)
	t := replayTable{
		trans: make([]int32, len(table.States)*nkw),
		nkw:   nkw,
		tags:  make([]tagBytes, len(table.States)),
	}
	for i := range t.trans {
		t.trans[i] = -1
	}
	for _, st := range table.States {
		row := t.row(st.ID)
		for _, kw := range st.Vocabulary {
			row[ids[kw.Keyword]] = int32(table.Successor(st.ID, kw.Token))
		}
		open, closeTag, bachelor := plan.TagStrings(st)
		t.tags[st.ID] = tagBytes{open: []byte(open), close: []byte(closeTag), bachelor: []byte(bachelor)}
	}
	return t
}

// New merges the compiled plans of K queries into one projection engine.
// The union scan tables are derived here, once; Project never builds
// tables. The plans may come from entirely unrelated path sets — the scan
// simply searches the union of their vocabularies, and each query's
// automaton recognizes exactly the candidates it would have matched alone.
func New(plans []*core.Plan) *Engine {
	if len(plans) == 0 {
		panic("pipeline: New needs at least one plan")
	}
	chunk := 0
	for _, p := range plans {
		if c := p.Options().ChunkSize; c > chunk {
			chunk = c
		}
	}
	e := &Engine{plans: plans, scan: core.NewScanPlanUnion(plans), chunk: chunk}
	keywords := e.scan.Keywords()
	ids := make(map[string]int32, len(keywords))
	for i, kw := range keywords {
		ids[kw] = int32(i)
	}
	e.closeOf = make([]int32, len(keywords))
	for i, tok := range e.scan.Tokens() {
		e.closeOf[i] = -1
		if !tok.Close {
			if id, ok := ids[glushkov.Closing(tok.Name).Keyword()]; ok {
				e.closeOf[i] = id
			}
		}
	}
	e.replay = make([]replayTable, len(plans))
	for i, p := range plans {
		e.replay[i] = newReplayTable(p, ids)
	}
	return e
}

// Len returns the number of merged queries.
func (e *Engine) Len() int { return len(e.plans) }

// Plans returns the merged per-query plans, in query order.
func (e *Engine) Plans() []*core.Plan { return e.plans }

// ScanPlan returns the shared union-vocabulary scan tables.
func (e *Engine) ScanPlan() *core.ScanPlan { return e.scan }

// Result bundles the counters of one run.
type Result struct {
	// Query holds one Stats per query, in input order: that query's
	// replay-side counters (bytes written, tags matched, initial jumps, tag
	// scan comparisons) plus its own automaton sizes. BytesRead reports the
	// shared pass's total — the one scan serves every query, so each query's
	// ratio counters are relative to the same document.
	Query []core.Stats
	// Scan holds the shared pass's counters: the bytes read, the anchored
	// scan's shifts and comparisons (summed across the workers), the
	// rejected raw matches, the segment-chain memory high-water mark and
	// the stage durations (summed across the workers, see core.Stats). This
	// work was done once, however many queries consumed it.
	Scan core.Stats
}

// Aggregate folds the result into one Stats: the shared scan pass plus
// every query's replay counters, with the document counted once.
func (r Result) Aggregate() core.Stats {
	agg := r.Scan
	for _, q := range r.Query {
		agg.Add(q)
	}
	// Every per-query Stats reports the shared read and held no buffers of
	// its own; the document and the chain memory count once, not K times.
	agg.BytesRead = r.Scan.BytesRead
	agg.MaxBufferBytes = r.Scan.MaxBufferBytes
	return agg
}

// Error reports the per-query failures of one run. Errs has one slot per
// query, in input order; a nil slot is a query that succeeded. Errors are
// isolated per query: one query's write failure or DTD conformance error
// never stops the others, while a run-level failure (a source read error, a
// cancelled context) fails every query that had not already finished —
// exactly the error each would have hit standalone.
type Error struct {
	Errs []error
}

// Error summarizes the failures.
func (e *Error) Error() string {
	failed := 0
	var first error
	for _, err := range e.Errs {
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	if failed == 1 {
		return fmt.Sprintf("pipeline: 1 of %d queries failed: %v", len(e.Errs), first)
	}
	return fmt.Sprintf("pipeline: %d of %d queries failed (first: %v)", failed, len(e.Errs), first)
}

// Unwrap exposes the non-nil per-query errors to errors.Is and errors.As.
func (e *Error) Unwrap() []error {
	var errs []error
	for _, err := range e.Errs {
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// sizing resolves the segment size and lookahead of a run on workers
// workers. The lookahead must cover a keyword starting on the last owned
// byte plus its terminator. One worker cuts chunk-sized segments — clamped
// so tiny chunk overrides do not degenerate into per-byte segments — with
// that minimal lookahead, which keeps a streamed run's per-segment copy
// small; a pool of several cuts Workers chunks per segment, with a chunk of
// lookahead to keep straddling tag-end scans rare.
func (e *Engine) sizing(workers int, opts Options) (segSize, overlap int) {
	chunk := opts.ChunkSize
	if chunk <= 0 {
		chunk = e.chunk
	}
	overlap = e.scan.MaxKeywordLen() + 1
	if workers <= 1 {
		return max(chunk, 64), overlap
	}
	segSize = opts.SegmentSize
	if segSize <= 0 {
		segSize = workers * chunk
	}
	return max(segSize, 16), max(chunk, overlap)
}

// MinParallelInput returns the smallest input size, in bytes, that a run
// with the given options actually scans in parallel: one segment plus its
// lookahead. Smaller inputs run on the caller alone, so callers that route
// work by size (e.g. a service threshold) should clamp their threshold to
// at least this value to keep their accounting honest.
func (e *Engine) MinParallelInput(opts Options) int {
	segSize, overlap := e.sizing(opts.Workers, opts)
	return segSize + overlap
}

// Project streams the document read from src through the shared scan once
// and writes query i's projection to dsts[i]. Each query's output is
// byte-identical to a standalone serial core run of its plan over the same
// document, whatever the worker count. dsts must have one writer per query
// (nil writers discard that query's output); a nil dsts discards every
// output, for measurement runs.
//
// The context is checked before every task of the run — every segment scan
// and every segment a query replays — so a cancelled ctx stops the run
// before its next read and fails the unfinished queries with ctx.Err(). If
// any query fails, the returned error is a *Error with one slot per query.
// A failing query has written its projection of the input before the
// failing tag (or, when the input ends or fails, of all of it).
//
// With opts.Workers > 1 a pool of that many workers scans the segments and
// replays the queries, writing different dsts from different goroutines at
// once but one writer (dsts that are ==) never concurrently. Inputs smaller
// than one segment plus its lookahead (see MinParallelInput) run on the
// caller alone.
func (e *Engine) Project(ctx context.Context, dsts []io.Writer, src io.Reader, opts Options) (Result, error) {
	// A regular-file source is memory-mapped and scanned in place (see
	// internal/mmapio): the segments alias the mapping instead of being
	// copied out of a read loop, Result.Scan.ZeroCopyInput is set, and the
	// file offset is advanced past the scanned bytes so the file looks
	// consumed exactly as streaming would leave it. Pipes, FIFOs, and
	// mapping failures of any kind stream as before.
	if f, ok := src.(*os.File); ok {
		if m, err := mmapio.Map(f); err == nil {
			defer m.Close()
			res, err := e.ProjectBuffered(ctx, dsts, m.Bytes(), opts)
			res.Scan.ZeroCopyInput = true
			f.Seek(m.Offset()+res.Scan.BytesRead, io.SeekStart)
			return res, err
		}
	}
	return e.run(ctx, dsts, &input{r: src}, opts)
}

// ProjectBuffered is Project for a document already in memory: the segments
// alias doc, so a run's only sizable allocations are the candidate lists
// (recycled once every live query has passed their segment), and
// Result.Scan.ZeroCopyInput is set.
func (e *Engine) ProjectBuffered(ctx context.Context, dsts []io.Writer, doc []byte, opts Options) (Result, error) {
	res, err := e.run(ctx, dsts, &input{doc: doc}, opts)
	res.Scan.ZeroCopyInput = true
	return res, err
}

// Replay projects the K queries from a stored candidate stream instead of
// scanning doc: the pool steps each query's Fig. 4 automaton over cands
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
// vocabulary fails the run before anything is written. opts.Workers spreads
// the K replays over a pool as in Project; the stream is cut into
// chunk-sized segments (opts.ChunkSize) at every worker count, so a
// segment's candidates stay in cache across the K replays. doc may be nil
// when cands is empty — the replay then behaves like an empty document,
// which is how summary-proven "no keyword occurs" documents are skipped
// without touching their bytes (the caller patches Stats.BytesRead
// afterwards).
func (e *Engine) Replay(ctx context.Context, dsts []io.Writer, doc []byte, cands []core.Candidate, opts Options) (Result, error) {
	nkw := int32(e.scan.KeywordCount())
	for i := range cands {
		if kw := cands[i].Kw; kw < 0 || kw >= nkw {
			return Result{}, fmt.Errorf("pipeline: replay candidate %d at offset %d: keyword ID %d outside the engine's %d-keyword vocabulary", i, cands[i].Pos, kw, nkw)
		}
	}
	// The replay reads no bytes it does not copy, but it reports the whole
	// document, as the scan it stands in for does.
	res, err := e.run(ctx, dsts, &input{doc: doc, replay: true, stored: cands, bytesRead: int64(len(doc))}, opts)
	res.Scan.ZeroCopyInput = true
	return res, err
}

// run sizes in's segments and projects it on a pool of opts.Workers.
func (e *Engine) run(ctx context.Context, dsts []io.Writer, in *input, opts Options) (Result, error) {
	if dsts == nil {
		dsts = make([]io.Writer, len(e.plans))
	}
	if len(dsts) != len(e.plans) {
		return Result{}, fmt.Errorf("pipeline: %d destinations for %d queries", len(dsts), len(e.plans))
	}
	workers := max(opts.Workers, 1)
	if in.replay {
		// Chunk-sized at every W, and no lookahead: stored candidates are
		// resolved.
		in.segSize, _ = e.sizing(1, opts)
	} else {
		in.segSize, in.overlap = e.sizing(workers, opts)
	}
	return newPool(ctx, e, dsts, in, workers, opts.Trace).run()
}
