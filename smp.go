// Package smp is a Go implementation of SMP — "XML Prefiltering as a String
// Matching Problem" (Koch, Scherzinger, Schmidt; ICDE 2008).
//
// SMP performs XML prefiltering (also called XML projection): given a
// non-recursive DTD and a set of projection paths extracted from an
// XQuery/XPath query, it copies only the query-relevant part of a document
// to the output, so that a downstream in-memory query engine has to hold far
// less data. Unlike prefilters built on a SAX parser, SMP never tokenizes
// the complete input: a static analysis compiles the DTD and the paths into
// a small runtime automaton whose states select the next keyword to look
// for. The paper drives that automaton with Boyer-Moore and Commentz-Walter
// searches that skip most of the input's characters; this package drives it
// from a branch-free scan that finds every keyword occurrence in one pass,
// which measures faster on current hardware, and keeps the paper's engine
// as the reference its output is tested against.
//
// Basic usage:
//
//	pf, err := smp.Compile(dtdSource, "/*, //australia//description#", smp.Options{})
//	if err != nil { ... }
//	stats, err := pf.Project(ctx, dst, src)
//
// or, extracting the projection paths from a query:
//
//	pf, err := smp.CompileQuery(dtdSource, "<q>{//australia//description}</q>", smp.Options{})
//
// Project is the one canonical execution call: it streams src through the
// prefilter into dst, honours ctx cancellation at every segment boundary,
// and takes functional options for everything a run can vary —
// WithWorkers(n) for intra-document parallelism, WithChunkSize(n) for the
// segment granularity, WithStatsInto(&st) to receive the counters even on
// error paths. Whole-corpus workloads go through Batch, which shards jobs
// across workers sharing one compiled plan, and K concurrent queries over
// one document go through CompileMulti and MultiPrefilter.MultiProject,
// which serve all K from a single document scan (per-query output
// byte-identical to a standalone Project run).
//
// The package also bundles deterministic XMark-like and MEDLINE-like dataset
// generators and the benchmark query workloads used by the experiment
// harness (cmd/smpbench), so that the paper's evaluation can be reproduced
// end to end.
package smp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/dtd"
	"smp/internal/obs"
	"smp/internal/paths"
	"smp/internal/pipeline"
	"smp/internal/xmlgen"
)

// Stats are the runtime counters of one prefiltering run: bytes read and
// written, characters inspected, average shift sizes, initial-jump savings
// and automaton sizes. See the fields of the aliased type for details.
type Stats = core.Stats

// CompileStats summarize the static analysis ("States (CW + BM)" in the
// paper's tables).
type CompileStats = compile.Stats

// PlanStats report the size and memory footprint of a prefilter's immutable
// execution plan — the matcher tables, interned tag strings and vocabulary
// orders shared by every concurrent run. See the aliased type for fields.
type PlanStats = core.PlanStats

// Query describes one benchmark query (identifier, query text, projection
// paths) from the bundled XMark and MEDLINE workloads.
type Query = xmlgen.Query

// Options configures compilation and execution of a Prefilter.
type Options struct {
	// ChunkSize is the streaming read granularity in bytes; 0 selects the
	// default (32 KiB, eight times a common page size, as in the paper).
	ChunkSize int
	// DisableInitialJumps zeroes the initial-jump table J (used by the
	// ablation benchmarks).
	DisableInitialJumps bool
}

// Prefilter is a compiled XML prefilter: an immutable execution plan (the
// runtime automaton with its lookup tables, precompiled string matchers and
// interned tag strings — see PlanStats) plus the scan tables of its
// execution engine, the K=1 case of internal/pipeline. A Prefilter is safe
// to reuse for any number of documents valid with respect to its DTD, and
// is safe for concurrent use by multiple goroutines (compile once, project
// many): all shared state is read-only after Compile.
type Prefilter struct {
	set  *paths.Set
	plan *core.Plan
	eng  *pipeline.Engine

	// compileDur is the wall time Compile spent on the static analysis and
	// plan construction, reported as the "compile" span of traced runs.
	compileDur time.Duration
}

// Compile builds a prefilter from DTD source text and a comma- or
// whitespace-separated list of projection paths (e.g. "/*, //item/name#").
func Compile(dtdSource, pathSpec string, opts Options) (*Prefilter, error) {
	set, err := paths.ParseSet(pathSpec)
	if err != nil {
		return nil, err
	}
	return compileSet(dtdSource, set, opts)
}

// CompileQuery builds a prefilter from DTD source text and an XQuery/XPath
// expression; the projection paths are extracted automatically (including
// the default top-level path "/*").
func CompileQuery(dtdSource, query string, opts Options) (*Prefilter, error) {
	set, err := paths.ExtractQuery(query)
	if err != nil {
		return nil, err
	}
	return compileSet(dtdSource, set, opts)
}

func compileSet(dtdSource string, set *paths.Set, opts Options) (*Prefilter, error) {
	t0 := time.Now()
	schema, err := dtd.Parse(dtdSource)
	if err != nil {
		return nil, err
	}
	table, err := compile.Compile(schema, set, compile.Options{DisableInitialJumps: opts.DisableInitialJumps})
	if err != nil {
		return nil, err
	}
	plan := core.NewPlan(table, core.Options{ChunkSize: opts.ChunkSize})
	return &Prefilter{
		set:        set,
		plan:       plan,
		eng:        pipeline.New([]*core.Plan{plan}),
		compileDur: time.Since(t0),
	}, nil
}

// ProjectOption configures one projection run: one Project call takes the
// document stream plus whatever overrides the run needs.
type ProjectOption func(*projectConfig)

// projectConfig is the resolved per-run configuration.
type projectConfig struct {
	workers   int
	chunkSize int
	statsInto *Stats
	index     *Index
	traceOut  io.Writer
}

func resolveOptions(opts []ProjectOption) projectConfig {
	var cfg projectConfig
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return cfg
}

// WithWorkers projects with intra-document parallelism on a pool of n
// workers — the caller plus n-1 goroutines sharing the prefilter's compiled
// plan: the input is cut into segments at tag boundaries, the workers scan
// the segments for keyword candidates and replay each query over them in
// input order — byte-identical to the serial run (only the instrumentation
// counters differ; they aggregate the speculative per-segment scans, see
// internal/pipeline). Scanning stays a few segments per worker ahead of the
// slowest query, so memory is bounded by the segment size. n <= 1 runs on
// the caller alone, and so do inputs smaller than one segment plus its
// lookahead (see MinParallelInput): the n-1 goroutines start only once a
// second segment is due. A query that fails writes the same bytes before
// its error whatever n is: its projection of the input before the failing
// tag (or, when the input ends or fails, of all of it). The option composes
// with MultiProject and with WithIndex: the K replays are spread over the
// n workers too, so different queries' destinations may be written from
// different goroutines at the same time; one destination writer is never
// written concurrently, even when several queries share it.
func WithWorkers(n int) ProjectOption {
	return func(c *projectConfig) { c.workers = n }
}

// WithAutoWorkers is WithWorkers(runtime.GOMAXPROCS(0)): use every
// available core for one document.
func WithAutoWorkers() ProjectOption {
	return WithWorkers(runtime.GOMAXPROCS(0))
}

// WithChunkSize overrides the chunk size (the one-worker and index-replay
// segment granularity, default 32 KiB) for this run only. For parallel
// scans it also scales the default segment size and the segment lookahead.
// n <= 0 keeps the prefilter's compiled value.
func WithChunkSize(n int) ProjectOption {
	return func(c *projectConfig) { c.chunkSize = n }
}

// WithTrace records spans of the run — compile, then each worker's segment
// scan and per-query replay tasks on its own thread — and writes them to w
// as Chrome trace-event JSON when the run finishes; the file loads directly
// in Perfetto or chrome://tracing. Tracing also measures
// Stats.StitchDuration, at a small per-write timing cost (ScanDuration and
// ReplayDuration are measured on every run, summed across the workers);
// the run and its output are otherwise unchanged. A trace write failure is reported only if the projection
// itself succeeded.
func WithTrace(w io.Writer) ProjectOption {
	return func(c *projectConfig) { c.traceOut = w }
}

// WithStatsInto stores the run's counters in *st before Project returns.
// The value is identical to Project's Stats result; the pointer form exists
// for callers that discard the return in an error path but still want the
// partial counters (bytes read before a cancellation, for example).
func WithStatsInto(st *Stats) ProjectOption {
	return func(c *projectConfig) { c.statsInto = st }
}

// Project streams the document read from src through the prefilter and
// writes the projection to dst. It is the canonical execution call of the
// package: ProjectFile routes through it, and Batch and MultiProject run
// the same engine (a single query is the K=1 case of a multi-query run).
// Memory use stays proportional to the chunk size, never to the document
// or projection size. The input must be valid with respect to the
// prefilter's DTD.
//
// The context is honoured at every segment boundary in every layer — the
// segment reads, scans and replays of every worker — so a cancelled ctx
// makes Project return ctx.Err() promptly without leaking goroutines. Output already written to dst stays written; callers
// that must not observe partial output use ProjectFile (which removes the
// file on failure) or buffer dst themselves.
//
// A Prefilter is safe for concurrent use: Project may be called from many
// goroutines at once. The matcher tables, tag strings, vocabulary orders
// and scan tables were all precompiled by Compile; only segment buffers are
// per-run.
func (p *Prefilter) Project(ctx context.Context, dst io.Writer, src io.Reader, opts ...ProjectOption) (Stats, error) {
	cfg := resolveOptions(opts)
	res, err := run(ctx, p.eng, []io.Writer{dst}, src, cfg, p.newRunTrace(cfg))
	return res.Aggregate(), singleQueryErr(err)
}

// run is the one execution path of Project, MultiProject and every Batch
// job: replay the offered index (see WithIndex) or scan, write the trace
// (tr may be nil), and fill WithStatsInto.
func run(ctx context.Context, eng *pipeline.Engine, dsts []io.Writer, src io.Reader, cfg projectConfig, tr *obs.Trace) (pipeline.Result, error) {
	popts := pipeline.Options{Workers: cfg.workers, ChunkSize: cfg.chunkSize, Trace: tr}
	var res pipeline.Result
	var err error
	if cfg.index != nil {
		res, err = replayOrScan(ctx, eng, dsts, src, cfg.index, popts)
	} else {
		res, err = eng.Project(ctx, dsts, src, popts)
	}
	err = finishTrace(tr, cfg.traceOut, err)
	if cfg.statsInto != nil {
		*cfg.statsInto = res.Aggregate()
	}
	return res, err
}

// newRunTrace builds the run's span recorder when WithTrace was given: the
// trace opens with the prefilter's compile span (the static analysis paid
// once, rendered at the timeline origin) on its own logical thread.
func (p *Prefilter) newRunTrace(cfg projectConfig) *obs.Trace {
	if cfg.traceOut == nil {
		return nil
	}
	tr := obs.NewTrace()
	tr.NameThread(0, "compile")
	tr.Add("compile", 0, 0, p.compileDur)
	return tr
}

// finishTrace writes the recorded trace as Chrome trace-event JSON. The
// projection's own error wins; a trace write failure surfaces only on an
// otherwise clean run.
func finishTrace(tr *obs.Trace, w io.Writer, runErr error) error {
	if tr == nil {
		return runErr
	}
	if err := tr.WriteChromeTrace(w); err != nil && runErr == nil {
		return err
	}
	return runErr
}

// singleQueryErr unwraps the pipeline's per-query error envelope for K=1
// surfaces: a single-query run reports its one error directly.
func singleQueryErr(err error) error {
	var perr *pipeline.Error
	if errors.As(err, &perr) && len(perr.Errs) == 1 {
		return perr.Errs[0]
	}
	return err
}

// ProjectFile prefilters the file at inPath into outPath, with the same
// options as Project (pass WithWorkers to fan one large file out across
// cores). If the projection fails mid-stream — including a cancelled ctx —
// the partially written outPath is removed, so a failed run never leaves a
// truncated output file behind.
func (p *Prefilter) ProjectFile(ctx context.Context, inPath, outPath string, opts ...ProjectOption) (Stats, error) {
	in, err := os.Open(inPath)
	if err != nil {
		return Stats{}, err
	}
	defer in.Close()
	out, err := os.Create(outPath)
	if err != nil {
		return Stats{}, err
	}
	stats, runErr := p.Project(ctx, out, in, opts...)
	if closeErr := out.Close(); runErr == nil {
		runErr = closeErr
	}
	if runErr != nil {
		os.Remove(outPath)
	}
	return stats, runErr
}

// MinParallelInput returns the smallest input size, in bytes, that Project
// with WithWorkers(workers) actually projects in parallel (one segment plus
// its lookahead); smaller inputs run on the caller alone. Useful for
// callers that route documents by size and want their accounting to reflect
// runs that really fanned out. Pass the same options the projection will
// use — a WithChunkSize override changes the threshold (a WithWorkers
// option takes precedence over the workers argument).
func (p *Prefilter) MinParallelInput(workers int, opts ...ProjectOption) int {
	cfg := resolveOptions(opts)
	if cfg.workers > 0 {
		workers = cfg.workers
	}
	return p.eng.MinParallelInput(pipeline.Options{Workers: workers, ChunkSize: cfg.chunkSize})
}

// Paths returns the projection paths the prefilter preserves, sorted.
func (p *Prefilter) Paths() []string { return p.set.Strings() }

// CompileStats returns the size of the compiled runtime automaton.
func (p *Prefilter) CompileStats() CompileStats { return p.plan.Table().Stats }

// PlanStats returns the size and memory footprint of the prefilter's shared
// execution plan. K concurrent runs hold one copy of this memory, not K.
func (p *Prefilter) PlanStats() PlanStats { return p.plan.Stats() }

// DescribeTables renders the compiled lookup tables A, V, J and T in a
// human-readable form (paper Fig. 3), for inspection and debugging.
func (p *Prefilter) DescribeTables() string { return p.plan.Table().String() }

// ExtractPaths runs the static path extraction of the projection semantics
// on an XQuery/XPath expression and returns the resulting projection paths
// (including the default top-level path "/*").
func ExtractPaths(query string) ([]string, error) {
	set, err := paths.ExtractQuery(query)
	if err != nil {
		return nil, err
	}
	return set.Strings(), nil
}

// Dataset identifies one of the bundled synthetic datasets.
type Dataset string

// The bundled datasets.
const (
	XMark   Dataset = "xmark"
	Medline Dataset = "medline"
)

// DatasetDTD returns the DTD of a bundled dataset.
func DatasetDTD(d Dataset) (string, error) {
	switch d {
	case XMark:
		return xmlgen.XMarkDTD(), nil
	case Medline:
		return xmlgen.MedlineDTD(), nil
	default:
		return "", fmt.Errorf("smp: unknown dataset %q (want %q or %q)", d, XMark, Medline)
	}
}

// Generate writes a synthetic document of approximately targetSize bytes for
// the dataset to w. Generation is deterministic in (dataset, targetSize,
// seed).
func Generate(d Dataset, w io.Writer, targetSize int64, seed uint64) (int64, error) {
	cfg := xmlgen.Config{TargetSize: targetSize, Seed: seed}
	switch d {
	case XMark:
		return xmlgen.XMark(w, cfg)
	case Medline:
		return xmlgen.Medline(w, cfg)
	default:
		return 0, fmt.Errorf("smp: unknown dataset %q (want %q or %q)", d, XMark, Medline)
	}
}

// GenerateBytes is Generate into memory.
func GenerateBytes(d Dataset, targetSize int64, seed uint64) ([]byte, error) {
	switch d {
	case XMark:
		return xmlgen.XMarkBytes(xmlgen.Config{TargetSize: targetSize, Seed: seed}), nil
	case Medline:
		return xmlgen.MedlineBytes(xmlgen.Config{TargetSize: targetSize, Seed: seed}), nil
	default:
		return nil, fmt.Errorf("smp: unknown dataset %q (want %q or %q)", d, XMark, Medline)
	}
}

// BenchmarkQueries returns the paper's benchmark query workload for a
// dataset: XM1–XM14 and XM17–XM20 for XMark (Table I), M1–M5 for MEDLINE
// (Table II).
func BenchmarkQueries(d Dataset) ([]Query, error) {
	switch d {
	case XMark:
		return xmlgen.XMarkQueries(), nil
	case Medline:
		return xmlgen.MedlineQueries(), nil
	default:
		return nil, fmt.Errorf("smp: unknown dataset %q (want %q or %q)", d, XMark, Medline)
	}
}

// QueryByID looks up a benchmark query by its identifier (e.g. "XM13" or
// "M5") across both workloads.
func QueryByID(id string) (Query, bool) { return xmlgen.QueryByID(id) }
