package pipeline

import (
	"bytes"
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
	// the K replays. Values <= 1 select the serial in-line run (one pass, no
	// goroutines).
	Workers int
	// SegmentSize is the nominal parallel segment length in bytes before the
	// '<' boundary back-off; 0 selects Workers times the chunk size (so one
	// round of segments covers roughly one window per worker). Serial runs
	// ignore it — their segment granularity is the chunk size.
	SegmentSize int
	// ChunkSize overrides the plans' streaming chunk size for this run: it
	// sets the serial segment granularity, the default parallel segment
	// sizing and the parallel lookahead. 0 selects the largest chunk size
	// among the merged plans.
	ChunkSize int
	// Trace, when non-nil, records per-stage spans (segment scan, replay,
	// stitch; per worker in a pool run) for Chrome trace-event output, and
	// enables the per-write stitch timing that untraced runs skip. The run
	// and its output are the same with or without it.
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
	// scan's shifts and comparisons (summed across workers for pool runs),
	// the rejected raw matches, the segment-chain memory high-water mark and
	// the stage durations (summed task time across a pool's workers). This
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

// resolve validates the destinations and resolves the run's chunk size.
func (e *Engine) resolve(dsts []io.Writer, opts Options) ([]io.Writer, int, error) {
	if dsts == nil {
		dsts = make([]io.Writer, len(e.plans))
	}
	if len(dsts) != len(e.plans) {
		return nil, 0, fmt.Errorf("pipeline: %d destinations for %d queries", len(dsts), len(e.plans))
	}
	chunk := opts.ChunkSize
	if chunk <= 0 {
		chunk = e.chunk
	}
	return dsts, chunk, nil
}

// sizing resolves the parallel segment size and lookahead of one run. The
// lookahead must cover a keyword starting on the last owned byte plus its
// terminator; one chunk keeps straddling tag-end scans rare.
func (e *Engine) sizing(workers int, opts Options) (segSize, overlap int) {
	if workers < 1 {
		workers = 1
	}
	chunk := opts.ChunkSize
	if chunk <= 0 {
		chunk = e.chunk
	}
	segSize = opts.SegmentSize
	if segSize <= 0 {
		segSize = workers * chunk
	}
	if segSize < 16 {
		segSize = 16
	}
	overlap = chunk
	if min := e.scan.MaxKeywordLen() + 1; overlap < min {
		overlap = min
	}
	return segSize, overlap
}

// MinParallelInput returns the smallest input size, in bytes, that a run
// with the given options actually scans in parallel: one segment plus its
// lookahead. Smaller inputs fall back to the serial source, so callers that
// route work by size (e.g. a service threshold) should clamp their
// threshold to at least this value to keep their accounting honest.
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
// The context is checked at every segment boundary — the pipeline's
// analogue of the serial window's chunk boundary — so a cancelled ctx stops
// the run before its next read and fails the unfinished queries with
// ctx.Err(). If any query fails, the returned error is a *Error with one
// slot per query.
//
// With opts.Workers > 1 a pool of that many workers scans the segments and
// replays the queries, writing different dsts from different goroutines at
// once but one writer (dsts that are ==) never concurrently. Inputs smaller
// than one segment plus its lookahead (see MinParallelInput) run serially.
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
	dsts, chunk, err := e.resolve(dsts, opts)
	if err != nil {
		return Result{}, err
	}
	if opts.Workers <= 1 || ctx.Err() != nil {
		// A pre-cancelled context takes the serial path too: its source
		// observes the cancellation before the first read, so the run fails
		// without spawning anything.
		return e.projectSerial(ctx, dsts, src, nil, chunk, opts.Trace)
	}
	segSize, overlap := e.sizing(opts.Workers, opts)

	// Read the first block synchronously: if the whole input fits in one
	// segment there is nothing to parallelize — the serial run wins, with
	// no goroutines and no segment copies. A read error this early is also
	// handed to the serial path, prefix first, so the output written and the
	// error reported match a serial run exactly.
	first := make([]byte, segSize+overlap)
	n, err := io.ReadFull(src, first)
	switch err {
	case nil:
	case io.EOF, io.ErrUnexpectedEOF:
		return e.projectSerial(ctx, dsts, nil, first[:n], chunk, opts.Trace)
	default:
		return e.projectSerial(ctx, dsts, io.MultiReader(bytes.NewReader(first[:n]), errorReader{err}), nil, chunk, opts.Trace)
	}

	in := &serialSource{r: src, segSize: segSize, overlap: overlap, backoff: true, carry: first, bytesRead: int64(len(first))}
	return newPool(ctx, e, dsts, in, opts.Workers, opts.Trace).run()
}

// ProjectBuffered is Project for a document already in memory: the segments
// alias doc, so a pool run's only sizable allocations are the candidate
// lists (recycled once every live query has passed their segment), and
// Result.Scan.ZeroCopyInput is set. Runs that would not fan out
// (Workers <= 1, small inputs) take the serial source, which slices doc in
// place as well.
func (e *Engine) ProjectBuffered(ctx context.Context, dsts []io.Writer, doc []byte, opts Options) (Result, error) {
	dsts, chunk, err := e.resolve(dsts, opts)
	if err != nil {
		return Result{}, err
	}
	segSize, overlap := e.sizing(opts.Workers, opts)
	var res Result
	if opts.Workers <= 1 || len(doc) < segSize+overlap || ctx.Err() != nil {
		res, err = e.projectSerial(ctx, dsts, nil, doc, chunk, opts.Trace)
	} else {
		in := &serialSource{doc: doc, segSize: segSize, overlap: overlap, backoff: true}
		res, err = newPool(ctx, e, dsts, in, opts.Workers, opts.Trace).run()
	}
	res.Scan.ZeroCopyInput = true
	return res, err
}

// projectSerial runs the K replays over the in-line serial source: src
// is read segment by segment, or, when src is nil, the in-memory doc is
// sliced in place. Both cut the same segments, so the driver —
// and with it the output and any error — cannot tell them apart.
func (e *Engine) projectSerial(ctx context.Context, dsts []io.Writer, src io.Reader, doc []byte, chunk int, trace *obs.Trace) (Result, error) {
	// The serial segment granularity is the chunk size, clamped so tiny
	// chunk overrides do not degenerate into per-byte segments.
	segSize := chunk
	if segSize < 64 {
		segSize = 64
	}
	return newDriver(e, dsts, newSerialSource(ctx, src, doc, e.scan, segSize), trace).run()
}
