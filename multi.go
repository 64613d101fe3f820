package smp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"smp/internal/core"
	"smp/internal/obs"
	"smp/internal/pipeline"
)

// MultiPrefilter is a compiled multi-query prefilter: K queries over one
// document, served by a single scan. The per-query compiled plans are merged
// into one union keyword vocabulary; one anchored pass over the input finds
// every occurrence of the union, and K per-query automata replay the shared
// candidate stream, each maintaining its own cursor and copy-region state
// and writing to its own destination. Each query's output is byte-identical
// to a standalone Project run of that query by construction — the scan is a
// sound and complete oracle for every automaton whose vocabulary it
// subsumes.
//
// This is the paper's reduction paying off a second time: because
// prefiltering is string matching, the expensive part of serving a query —
// scanning the document for vocabulary occurrences — is shareable across
// queries, and K concurrent queries against one document cost one scan plus
// K sparse replays instead of K scans. The scan and the K replays can
// additionally be spread over W workers (WithWorkers), so both axes of the
// unified pipeline compose in one call.
//
// A MultiPrefilter is immutable after compilation and safe for concurrent
// use by multiple goroutines.
type MultiPrefilter struct {
	pfs   []*Prefilter
	multi *pipeline.Engine
}

// MultiError is the error type of a failed multi-query projection: one slot
// per query, nil for queries that succeeded. errors.Is and errors.As see
// through it to the per-query errors (e.g. errors.Is(err, context.Canceled)
// after a cancelled run).
type MultiError = pipeline.Error

// MultiPlanStats report the memory footprint of a compiled MultiPrefilter,
// split into the per-query plans (which concurrent standalone prefilters for
// the same queries would hold anyway) and the union scan tables the merge
// adds on top. Caches that already weigh the per-query plans should count
// only ScanBytes for a merged entry.
type MultiPlanStats struct {
	// Queries is the number of merged queries.
	Queries int
	// UnionKeywords is the size of the merged scan vocabulary.
	UnionKeywords int
	// ScanBytes is the approximate footprint of the union scan tables — what
	// the merge adds on top of the per-query plans.
	ScanBytes int64
	// PlanBytes is the summed footprint of the per-query compiled plans.
	PlanBytes int64
	// MemBytes is the total: ScanBytes + PlanBytes.
	MemBytes int64
}

// CompileMulti builds a multi-query prefilter from DTD source text and one
// projection-path spec per query (each spec in the Compile syntax, e.g.
// "/*, //item/name#"). Query i of every MultiProject call corresponds to
// pathSpecs[i].
func CompileMulti(dtdSource string, pathSpecs []string, opts Options) (*MultiPrefilter, error) {
	pfs := make([]*Prefilter, len(pathSpecs))
	for i, spec := range pathSpecs {
		pf, err := Compile(dtdSource, spec, opts)
		if err != nil {
			return nil, fmt.Errorf("smp: multi-query %d: %w", i, err)
		}
		pfs[i] = pf
	}
	return NewMultiPrefilter(pfs...)
}

// CompileMultiQueries is CompileMulti with one XQuery/XPath expression per
// query; the projection paths are extracted automatically, as in
// CompileQuery.
func CompileMultiQueries(dtdSource string, queries []string, opts Options) (*MultiPrefilter, error) {
	pfs := make([]*Prefilter, len(queries))
	for i, q := range queries {
		pf, err := CompileQuery(dtdSource, q, opts)
		if err != nil {
			return nil, fmt.Errorf("smp: multi-query %d: %w", i, err)
		}
		pfs[i] = pf
	}
	return NewMultiPrefilter(pfs...)
}

// NewMultiPrefilter merges already-compiled prefilters into one multi-query
// prefilter, sharing their plans rather than recompiling: the per-query
// tables stay exactly the ones the standalone prefilters execute, and only
// the union scan tables are built here. This is the entry point for callers
// that cache compiled prefilters individually (e.g. cmd/smpserve) and
// assemble multi-query sets on demand.
func NewMultiPrefilter(pfs ...*Prefilter) (*MultiPrefilter, error) {
	if len(pfs) == 0 {
		return nil, errors.New("smp: NewMultiPrefilter needs at least one prefilter")
	}
	plans := make([]*core.Plan, len(pfs))
	for i, pf := range pfs {
		plans[i] = pf.plan
	}
	return &MultiPrefilter{pfs: pfs, multi: pipeline.New(plans)}, nil
}

// Len returns the number of merged queries.
func (m *MultiPrefilter) Len() int { return len(m.pfs) }

// Query returns the standalone prefilter of query i, sharing its compiled
// plan with the merged scan. Useful for per-query metadata (Paths,
// CompileStats, PlanStats) and for serving the same query standalone.
func (m *MultiPrefilter) Query(i int) *Prefilter { return m.pfs[i] }

// PlanStats returns the merged footprint of the multi-query prefilter.
func (m *MultiPrefilter) PlanStats() MultiPlanStats {
	st := MultiPlanStats{
		Queries:       len(m.pfs),
		UnionKeywords: m.multi.ScanPlan().KeywordCount(),
		ScanBytes:     m.multi.ScanPlan().MemSize(),
	}
	for _, pf := range m.pfs {
		st.PlanBytes += pf.PlanStats().MemBytes
	}
	st.MemBytes = st.ScanBytes + st.PlanBytes
	return st
}

// MinParallelInput returns the smallest input size, in bytes, that
// MultiProject with WithWorkers(workers) actually scans in parallel (one
// segment plus its lookahead); smaller inputs run on the caller alone. Pass
// the same options the projection will use — a WithChunkSize override
// changes the threshold (a WithWorkers option takes precedence over the
// workers argument).
func (m *MultiPrefilter) MinParallelInput(workers int, opts ...ProjectOption) int {
	cfg := resolveOptions(opts)
	if cfg.workers > 0 {
		workers = cfg.workers
	}
	return m.multi.MinParallelInput(pipeline.Options{Workers: workers, ChunkSize: cfg.chunkSize})
}

// MultiProject streams the document read from src through the shared scan
// once and writes query i's projection to dsts[i], returning one Stats per
// query. dsts must have one writer per query; a nil writer discards that
// query's output, and a nil dsts discards every output (measurement runs).
//
// MultiProject follows the v2 execution contract: the context is honoured at
// every segment boundary (a cancelled ctx stops the run before its next read
// and fails the unfinished queries with ctx.Err()), WithChunkSize overrides
// the scan granularity for this run, and WithStatsInto receives the
// aggregate counters — the shared scan pass plus every query's replay,
// with the document counted once — even on error paths. WithWorkers(n) (or
// WithAutoWorkers) runs the shared scan and the K replays on one pool of n
// workers: each query still consumes the one in-order candidate stream
// whatever the worker count, so every query's output stays byte-identical
// to its standalone Project run. Inputs smaller than one segment plus its
// lookahead (see MinParallelInput) run on the caller alone.
//
// Destinations: with n > 1, different dsts may be written from different
// goroutines at the same time, so each writer must not share unsynchronized
// state with another dst. A single writer is never written concurrently:
// queries whose dsts are the same (==) writer are replayed one at a time,
// and their writes interleave at segment granularity.
//
// Errors are isolated per query: one query's write failure or DTD
// conformance error never stops the others. If any query fails, the returned
// error is a *MultiError with one slot per query; the per-query Stats are
// valid either way.
func (m *MultiPrefilter) MultiProject(ctx context.Context, dsts []io.Writer, src io.Reader, opts ...ProjectOption) ([]Stats, error) {
	cfg := resolveOptions(opts)
	res, err := run(ctx, m.multi, dsts, src, cfg, m.newRunTrace(cfg))
	return res.Query, err
}

// newRunTrace builds the run's span recorder when WithTrace was given. The
// per-query compile spans (each prefilter's static analysis, paid once at
// Compile) open the timeline back to back on the compile thread.
func (m *MultiPrefilter) newRunTrace(cfg projectConfig) *obs.Trace {
	if cfg.traceOut == nil {
		return nil
	}
	tr := obs.NewTrace()
	tr.NameThread(0, "compile")
	var off time.Duration
	for i, pf := range m.pfs {
		tr.Add(fmt.Sprintf("compile q%d", i), 0, off, pf.compileDur)
		off += pf.compileDur
	}
	return tr
}
