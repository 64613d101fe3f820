// Package corpus shards a batch of XML documents across a pool of worker
// goroutines, all driving one shared projection engine, and aggregates the
// per-document runtime statistics. It is the batch/concurrent layer on top
// of the single-document engine in internal/pipeline: the engine answers
// "how do I project one document fast" (for one query or K, with W scan
// workers), corpus answers "how do I push a whole corpus through N cores".
//
// The runner is engine-agnostic: an Engine projects one document for its
// queries and reports per-query and aggregate Stats. Package smp's Batch
// adapts a pipeline.Engine to it (a single query is K=1) and adds index
// replay; a minimal adapter is
//
//	type engine struct{ eng *pipeline.Engine }
//
//	func (engine) Multi() bool { return false }
//
//	func (e engine) Project(ctx context.Context, dsts []io.Writer, src io.Reader, _ *index.Index) ([]core.Stats, core.Stats, error) {
//		res, err := e.eng.Project(ctx, dsts, src, pipeline.Options{})
//		return res.Query, res.Aggregate(), err
//	}
//
//	runner := corpus.Runner{Engine: engine{pipeline.New(plans)}}
//	results, agg := runner.Run(context.Background(), jobs)
//
// which uses GOMAXPROCS workers. The engine is immutable, so every worker
// shares its compiled tables — matcher tables, interned tag strings,
// vocabulary orders and scan tables exist once per compilation, not once
// per worker. The context given to Run reaches every engine run:
// cancelling it skips unstarted jobs and aborts in-flight projections at
// their next segment boundary.
package corpus
