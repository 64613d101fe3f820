package smp

import (
	"context"
	"errors"
	"io"

	"smp/internal/corpus"
	"smp/internal/pipeline"
)

// BatchJob is one document of a batch: a name for reporting, a source, and
// an optional destination for the projected output. See the aliased type
// for the field contracts (Src is opened exactly once, by the worker that
// picks the job up; a nil Dst discards the output).
type BatchJob = corpus.Job

// BatchResult is the outcome of one batch job: the job's name, the worker
// that ran it, the run's Stats and wall-clock time, and the job's first
// error — errors are isolated per job and never stop the batch.
type BatchResult = corpus.Result

// BatchAggregate sums a batch's results: documents attempted and failed,
// bytes in and out, and the batch wall-clock time, with throughput and
// output-ratio helpers.
type BatchAggregate = corpus.Aggregate

// BatchFromBytes builds a BatchJob over an in-memory document that discards
// its output. Attach a Dst afterwards to keep the projection.
func BatchFromBytes(name string, doc []byte) BatchJob {
	return corpus.FromBytes(name, doc)
}

// BatchFromFile builds a BatchJob that reads the document from inPath and,
// if outPath is non-empty, writes the projection to outPath. A job that
// fails or is cancelled mid-stream removes its partial outPath, matching
// the ProjectFile contract.
func BatchFromFile(inPath, outPath string) BatchJob {
	return corpus.FromFile(inPath, outPath)
}

// BatchMultiFromFile builds a BatchJob for a multi-query batch (a Batch with
// Multi set): the document read from inPath, query i's projection written to
// outPaths[i] (an empty outPath discards that query's output). A job that
// fails or is cancelled removes every output file it created.
func BatchMultiFromFile(inPath string, outPaths []string) BatchJob {
	return corpus.FromFileMulti(inPath, outPaths)
}

// WithBatchIndex attaches a sidecar loader to a job: the worker that picks
// the job up reads the document's conventional sidecar
// (IndexSidecarPath(sidecarFor)) and, when it is present, intact, fresh and
// covering, replays it instead of scanning (Stats.IndexHits); any other
// outcome — including a sidecar deleted mid-batch — falls back to the scan
// and is counted in Stats.IndexSkips. Documents whose vocabulary summary
// rules out every query keyword replay without touching their bytes
// (Stats.IndexSummarySkips) — the paper's prefiltering idea at corpus
// granularity.
func WithBatchIndex(job BatchJob, sidecarFor string) BatchJob {
	job.Index = func() (*Index, error) { return ReadIndex(IndexSidecarPath(sidecarFor)) }
	return job
}

// Batch shards a corpus of documents across a pool of worker goroutines
// driving one compiled Prefilter (or MultiPrefilter). Every worker runs the
// same immutable engine, so K workers hold one copy of the compiled tables
// (matchers, interned tags, vocabulary orders, scan tables) and only the
// segment buffers are per-run. This is the inter-document axis of
// parallelism; combine it with IntraWorkers for the intra-document axis.
//
// The zero value of Workers selects runtime.GOMAXPROCS(0). A Batch value is
// immutable configuration; Run may be called many times and concurrently.
type Batch struct {
	// Prefilter is the compiled prefilter every worker executes (required
	// unless Multi is set).
	Prefilter *Prefilter
	// Multi, if non-nil, turns the batch into a multi-query batch: every
	// job's document is projected for all of Multi's queries in one shared
	// scan (see MultiPrefilter). Per-query destinations come from the job
	// (BatchMultiFromFile); per-query counters land in BatchResult.QueryStats
	// and a failed query surfaces as a *MultiError in the job's Err. Multi
	// takes precedence over Prefilter.
	Multi *MultiPrefilter
	// Workers is the pool size; values < 1 select runtime.GOMAXPROCS(0).
	Workers int
	// IntraWorkers, if > 1, additionally runs each job on a pool of that
	// many workers sharing its document's segment scans and query replays
	// (Project's WithWorkers axis), so a batch can combine inter-document
	// and intra-document parallelism. A multi-query job's destinations may
	// then be written from different goroutines at once; one writer is
	// never written concurrently. Documents smaller than the parallel
	// threshold keep the serial scan.
	IntraWorkers int
	// ChunkSize overrides the chunk size of every job in the batch; 0 keeps
	// the prefilter's compiled value.
	ChunkSize int
}

// Run pushes every job through the worker pool and returns the per-job
// results (in job order) plus the batch aggregate. Jobs that fail do not
// stop the batch; their error is recorded in their BatchResult. Cancelling
// ctx marks not-yet-started jobs with ctx.Err() and aborts in-flight jobs
// at their next segment boundary, so a cancelled batch drains promptly.
func (b *Batch) Run(ctx context.Context, jobs []BatchJob) ([]BatchResult, BatchAggregate) {
	eng := batchEngine{cfg: projectConfig{workers: b.IntraWorkers, chunkSize: b.ChunkSize}}
	switch {
	case b.Multi != nil:
		eng.eng, eng.multi = b.Multi.multi, true
	case b.Prefilter != nil:
		eng.eng = b.Prefilter.eng
	default:
		results := make([]BatchResult, len(jobs))
		err := errors.New("smp: Batch needs a Prefilter or a Multi")
		for i, job := range jobs {
			results[i] = BatchResult{Name: job.Name, Err: err}
		}
		return results, BatchAggregate{Documents: len(jobs), Failed: len(jobs)}
	}
	runner := corpus.Runner{Engine: eng, Workers: b.Workers}
	return runner.Run(ctx, jobs)
}

// batchEngine adapts a pipeline engine — a MultiPrefilter's merged one, or
// a Prefilter's K=1 one — to the corpus runner: every job is one Project or
// MultiProject run with the batch's worker and chunk-size overrides. The
// engine is immutable, so every batch worker drives it concurrently.
type batchEngine struct {
	eng   *pipeline.Engine
	cfg   projectConfig
	multi bool
}

func (e batchEngine) Multi() bool { return e.multi }

func (e batchEngine) Project(ctx context.Context, dsts []io.Writer, src io.Reader, ix *Index) ([]Stats, Stats, error) {
	cfg := e.cfg
	cfg.index = ix
	res, err := run(ctx, e.eng, dsts, src, cfg, nil)
	if !e.multi {
		err = singleQueryErr(err)
	}
	return res.Query, res.Aggregate(), err
}
