package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"smp"
)

// loopAcc accumulates one measured closed loop.
type loopAcc struct {
	stat loopStat
	// attempted counts every operation, failed ones too; stat.ops counts
	// the ones that succeeded.
	attempted  int64
	failed     int64
	lat        []time.Duration
	outBytes   int64
	runs       int64 // library runs, for the zero-copy share
	zeroCopy   int64
	indexRuns  int64 // runs offered an index
	indexHits  int64
	indexSkips int64
	summary    int64
	// passMiBps and passOps are the throughput and operation rate of each
	// pass; the reported rates are their medians, which a burst of load
	// from outside the benchmark moves less than a total would.
	passMiBps []float64
	passOps   []float64
}

// op adds one operation: its duration and the document bytes it covered.
func (a *loopAcc) op(d time.Duration, docBytes int64) {
	a.sample(d, docBytes)
	a.stat.busy += d
}

// sample adds one operation that overlaps others; the caller accounts the
// busy time.
func (a *loopAcc) sample(d time.Duration, docBytes int64) {
	a.attempted++
	a.stat.ops++
	a.stat.bytes += docBytes
	a.lat = append(a.lat, d)
}

// fail counts one operation that returned an error.
func (a *loopAcc) fail(what string, err error) {
	a.attempted++
	a.failed++
	if a.failed <= 3 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
}

func (a *loopAcc) stats(st smp.Stats) {
	a.runs++
	if st.ZeroCopyInput {
		a.zeroCopy++
	}
}

// measure runs whole passes until seconds have elapsed (at least one). It
// fails when no operation succeeded, since there is then nothing to time.
func (b *bench) measure(seconds float64, pass func(acc *loopAcc) error) (*loopAcc, error) {
	acc := &loopAcc{}
	t0 := time.Now()
	for passes := 0; passes == 0 || time.Since(t0).Seconds() < seconds; passes++ {
		prev := acc.stat
		if err := pass(acc); err != nil {
			return nil, err
		}
		if ops := acc.stat.ops - prev.ops; ops > 0 {
			busy := (acc.stat.busy - prev.busy).Seconds()
			acc.passMiBps = append(acc.passMiBps, mib(acc.stat.bytes-prev.bytes)/busy)
			acc.passOps = append(acc.passOps, float64(ops)/busy)
		}
	}
	acc.stat.wall = time.Since(t0)
	if acc.stat.ops == 0 {
		return nil, fmt.Errorf("all %d operations failed", acc.attempted)
	}
	return acc, nil
}

// setupMedian runs the system set-up reps times and returns the median
// duration; the state of the last rep stays in place for the run.
func setupMedian(reps int, setup func() error) (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	return median(ds), nil
}

// closedLoop is the common measurement of the library workloads. Untraced
// runs measure the end-to-end metrics; traced runs measure an untraced
// quarter as the overhead base, a traced half for the ledger, and then
// the layer probes over the workload's documents and specs.
func (b *bench) closedLoop(setup time.Duration, baseRSS int64, pass func(acc *loopAcc) error, probe func() error) error {
	s := b.cfg.seconds
	if !b.cfg.trace {
		rss := startRSS()
		acc, err := b.measure(s, pass)
		peak := rss.finish()
		if err != nil {
			return err
		}
		b.set("setup_s", setup.Seconds(), "s")
		b.set("throughput_mibps", medianOf(acc.passMiBps), "MiB/s")
		b.set("ops_per_s", medianOf(acc.passOps), "1/s")
		b.set("op_ms_p50", ms(percentile(acc.lat, 0.5)), "ms")
		b.set("op_ms_p95", ms(percentile(acc.lat, 0.95)), "ms")
		b.set("mem_peak_mib", float64(peak-baseRSS)/(1<<20), "MiB")
		b.count(acc)
		b.set("ok_ratio", float64(acc.attempted-acc.failed)/float64(acc.attempted), "ratio")
		return nil
	}
	un, err := b.measure(s/4, pass)
	if err != nil {
		return err
	}
	b.count(un)
	b.untraced = un.stat
	b.recording = true
	tr, err := b.measure(s/2, pass)
	b.recording = false
	if err != nil {
		return err
	}
	b.count(tr)
	b.traced = tr.stat
	b.reportLedger()
	b.reportLoopLayer(tr)
	if err := probe(); err != nil {
		return err
	}
	return b.serveProbe()
}

// reportLoopLayer sets the per-layer metrics counted in the main loop.
func (b *bench) reportLoopLayer(acc *loopAcc) {
	ratio := func(n, base int64) float64 { return share(float64(n), float64(base)) }
	b.set("mmapio.zero_copy_ratio", ratio(acc.zeroCopy, acc.runs), "ratio")
	b.set("write.output_ratio", ratio(acc.outBytes, acc.stat.bytes), "ratio")
	b.set("index.hit_ratio", ratio(acc.indexHits, acc.indexRuns), "ratio")
	b.set("index.skip_ratio", ratio(acc.indexSkips, acc.indexRuns), "ratio")
	b.set("index.summary_skip_ratio", ratio(acc.summary, acc.indexHits), "ratio")
}

// count adds a loop's operations to the result's attempted and failed.
func (b *bench) count(acc *loopAcc) {
	b.attempted += acc.attempted
	b.failed += acc.failed
}

// genPair generates one document per dataset of the given size.
func (b *bench) genPair(size int64) ([]*doc, error) {
	var docs []*doc
	for i, ds := range datasets {
		d, err := genDoc(i, ds, size, mix(b.cfg.seed, i))
		if err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// runPaperSerial: one caller runs the 23 paper queries one at a time
// through Prefilter.Project with default options over one XMark and one
// MEDLINE document held in memory.
func runPaperSerial(b *bench) error {
	docs, err := b.genPair(int64(16 << 20 * b.cfg.scale))
	if err != nil {
		return err
	}
	specs := paperSpecs()
	if err := b.oracleCheck(specs); err != nil {
		return err
	}
	ref, err := b.references(docs, specs)
	if err != nil {
		return err
	}
	docOf := map[smp.Dataset]*doc{}
	for _, d := range docs {
		docOf[d.ds] = d
	}
	settle()
	base := rssBytes()
	pfs := map[string]*smp.Prefilter{}
	setup, err := setupMedian(31, func() error {
		for _, s := range specs {
			pf, err := smp.Compile(dtdOf(s.ds), s.paths, smp.Options{})
			if err != nil {
				return fmt.Errorf("compile %s: %w", s.id, err)
			}
			pfs[s.id] = pf
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.workers, b.opName = 1, "Project"
	snk := &sink{b: b}
	ctx := context.Background()
	var op int64
	pass := func(acc *loopAcc) error {
		for _, s := range specs {
			d := docOf[s.ds]
			var st smp.Stats
			var err error
			op++
			dur := b.call("core", "Project", -1, op, 0, func(id int) {
				snk.reset(id)
				st, err = pfs[s.id].Project(ctx, snk, bytes.NewReader(d.data))
			})
			if err != nil {
				acc.fail(s.id, err)
				continue
			}
			acc.op(dur, int64(len(d.data)))
			acc.stats(st)
			acc.outBytes += int64(len(snk.buf))
			if err := ref.check(d.id, s.id, snk.buf); err != nil {
				return err
			}
		}
		return nil
	}
	return b.closedLoop(setup, base, pass, func() error {
		return b.layerProbes(docs, specs, ref)
	})
}

// runMultiFile: one caller runs each dataset's full query set as one
// MultiPrefilter (K=18 XMark, K=5 MEDLINE) with WithWorkers(nproc) over an
// *os.File of a large on-disk document.
func runMultiFile(b *bench) error {
	docs, err := b.genPair(int64(24 << 20 * b.cfg.scale))
	if err != nil {
		return err
	}
	if err := writeDocs(filepath.Join(b.work, "docs"), docs); err != nil {
		return err
	}
	specs := paperSpecs()
	if err := b.oracleCheck(specs); err != nil {
		return err
	}
	ref, err := b.references(docs, specs)
	if err != nil {
		return err
	}
	settle()
	base := rssBytes()
	multis := map[smp.Dataset]*smp.MultiPrefilter{}
	setup, err := setupMedian(31, func() error {
		for _, ds := range datasets {
			var ps []string
			for _, s := range specsOf(specs, ds) {
				ps = append(ps, s.paths)
			}
			m, err := smp.CompileMulti(dtdOf(ds), ps, smp.Options{})
			if err != nil {
				return err
			}
			multis[ds] = m
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.workers, b.opName = 1, "MultiProject"
	sinks := map[smp.Dataset][]*sink{}
	dsts := map[smp.Dataset][]io.Writer{}
	for _, ds := range datasets {
		for range specsOf(specs, ds) {
			s := &sink{b: b}
			sinks[ds] = append(sinks[ds], s)
			dsts[ds] = append(dsts[ds], s)
		}
	}
	ctx := context.Background()
	var op int64
	// One operation is one pass: each dataset's MultiProject over its file.
	// The two calls take very different times, so per-call latencies would
	// form two equal modes whose median falls in the gap between them.
	pass := func(acc *loopAcc) error {
		op++
		var passDur time.Duration
		var passBytes int64
		for _, d := range docs {
			var agg smp.Stats
			var err error
			passDur += b.call("pipeline", "MultiProject", -1, op, 0, func(id int) {
				for _, s := range sinks[d.ds] {
					s.reset(id)
				}
				var f *os.File
				if f, err = os.Open(d.path); err != nil {
					return
				}
				_, err = multis[d.ds].MultiProject(ctx, dsts[d.ds], f, smp.WithWorkers(b.nproc), smp.WithStatsInto(&agg))
				f.Close()
			})
			if err != nil {
				acc.fail(string(d.ds), err)
				return nil
			}
			passBytes += int64(len(d.data))
			acc.stats(agg)
			for q, s := range specsOf(specs, d.ds) {
				acc.outBytes += int64(len(sinks[d.ds][q].buf))
				if err := ref.check(d.id, s.id, sinks[d.ds][q].buf); err != nil {
					return err
				}
			}
		}
		acc.op(passDur, passBytes)
		return nil
	}
	return b.closedLoop(setup, base, pass, func() error {
		return b.layerProbes(docs, specs, ref)
	})
}

// corpusSlot is one document position of the corpus: two pre-generated
// versions whose sidecar goes stale whenever the file is rewritten.
type corpusSlot struct {
	path    string
	version [2]*doc
	cur     int
	group   int // the pass number modulo 8 at which the slot is rewritten
	stale   bool
	sinks   []*sink
}

func (s *corpusSlot) doc() *doc { return s.version[s.cur] }

// runCorpusIndexed: Batch{Multi, Workers: nproc} over several hundred
// on-disk documents with WithBatchIndex sidecars built at set-up. Each pass
// rewrites one document in eight with its other version, so its sidecar is
// stale and the job falls back to the scan; the benchmark then rebuilds the
// sidecar through BuildIndex and WriteFile.
func runCorpusIndexed(b *bench) error {
	n := max(8, int(192*b.cfg.scale))
	lo, hi := int64(16<<10*b.cfg.scale)+2048, int64(1<<20*b.cfg.scale)+4096
	// The corpus's shape is the same for every seed, only the contents
	// differ: sizes come in a fixed order, the datasets alternate along the
	// size ranks, and each group rewritten together holds one document in
	// eight of every size class.
	sizes := logSizes(n, lo, hi, 1)
	rank := make([]int, n)
	for i := range rank {
		for j := range sizes {
			if sizes[j] < sizes[i] || (sizes[j] == sizes[i] && j < i) {
				rank[i]++
			}
		}
	}
	dir := filepath.Join(b.work, "corpus")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	slots := make([]*corpusSlot, n)
	var all []*doc
	for i := range slots {
		ds := datasets[rank[i]%2]
		slot := &corpusSlot{path: filepath.Join(dir, fmt.Sprintf("doc-%04d.xml", i)), group: rank[i] / 2 % 8}
		for v := range slot.version {
			d, err := genDoc(2*i+v, ds, sizes[i], mix(b.cfg.seed, 2*i+v))
			if err != nil {
				return err
			}
			slot.version[v] = d
			all = append(all, d)
		}
		if err := os.WriteFile(slot.path, slot.doc().data, 0o644); err != nil {
			return err
		}
		slots[i] = slot
	}
	specs := paperSpecs()
	if err := b.oracleCheck(specs); err != nil {
		return err
	}
	ref, err := b.references(all, specs)
	if err != nil {
		return err
	}
	settle()
	base := rssBytes()
	multis := map[smp.Dataset]*smp.MultiPrefilter{}
	setup, err := setupMedian(9, func() error {
		for _, ds := range datasets {
			var ps []string
			for _, s := range specsOf(specs, ds) {
				ps = append(ps, s.paths)
			}
			m, err := smp.CompileMulti(dtdOf(ds), ps, smp.Options{})
			if err != nil {
				return err
			}
			multis[ds] = m
		}
		for _, slot := range slots {
			ix := multis[slot.doc().ds].BuildIndex(slot.doc().data)
			if err := ix.WriteFile(smp.IndexSidecarPath(slot.path)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, slot := range slots {
		for range specsOf(specs, slot.doc().ds) {
			slot.sinks = append(slot.sinks, &sink{b: b})
		}
	}
	b.workers, b.opName = b.nproc, "job"
	ctx := context.Background()
	var op int64
	passNo := 0
	pass := func(acc *loopAcc) error {
		var busy time.Duration
		for _, ds := range datasets {
			var group []*corpusSlot
			for _, slot := range slots {
				if slot.doc().ds == ds {
					group = append(group, slot)
				}
			}
			jobs, states := b.corpusJobs(group, &op)
			var results []smp.BatchResult
			var agg smp.BatchAggregate
			busy += b.call("corpus", "Batch.Run", -1, op, 0, func(id int) {
				for _, js := range states {
					js.parent = id
				}
				batch := smp.Batch{Multi: multis[ds], Workers: b.nproc}
				results, agg = batch.Run(ctx, jobs)
			})
			acc.indexRuns += int64(len(jobs))
			acc.indexHits += agg.IndexHits
			acc.indexSkips += agg.IndexSkips
			acc.summary += agg.IndexSummarySkips
			for i, res := range results {
				js := states[i]
				if res.Err != nil {
					acc.fail(res.Name, res.Err)
					continue
				}
				if js.span >= 0 {
					b.mu.Lock()
					b.spans[js.span].tid = 1 + res.Worker
					b.mu.Unlock()
				}
				acc.sample(js.end.Sub(js.start), int64(len(js.slot.doc().data)))
				acc.stats(res.Stats)
				for q, s := range specsOf(specs, ds) {
					out := js.slot.sinks[q].buf
					acc.outBytes += int64(len(out))
					if err := ref.check(js.slot.doc().id, s.id, out); err != nil {
						return err
					}
				}
			}
		}
		// Rebuild the sidecars the Batch found stale.
		for _, slot := range slots {
			if !slot.stale {
				continue
			}
			m := multis[slot.doc().ds]
			var ix *smp.Index
			busy += b.call("index", "BuildIndex", -1, op, 0, func(int) { ix = m.BuildIndex(slot.doc().data) })
			var err error
			busy += b.call("index", "WriteFile", -1, op, 0, func(int) { err = ix.WriteFile(smp.IndexSidecarPath(slot.path)) })
			if err != nil {
				return err
			}
			slot.stale = false
		}
		// Jobs overlap on nproc workers, so the loop's busy time is the pass
		// time, not the sum of the job times.
		acc.stat.busy += busy
		// Rewrite one document in eight (input preparation, outside the
		// clock).
		for _, slot := range slots {
			if slot.group == passNo%8 {
				slot.cur ^= 1
				if err := os.WriteFile(slot.path, slot.doc().data, 0o644); err != nil {
					return err
				}
				slot.stale = true
			}
		}
		passNo++
		return nil
	}
	return b.closedLoop(setup, base, pass, func() error {
		var cur []*doc
		for _, slot := range slots {
			cur = append(cur, slot.doc())
		}
		return b.layerProbes(cur, specs, ref)
	})
}

// jobState follows one Batch job through the benchmark's callbacks: the
// job starts when the worker opens its source and ends when it closes the
// last of its destinations.
type jobState struct {
	slot       *corpusSlot
	parent     int
	span       int
	start, end time.Time
	open       int
	mu         sync.Mutex
}

func (b *bench) corpusJobs(group []*corpusSlot, op *int64) ([]smp.BatchJob, []*jobState) {
	jobs := make([]smp.BatchJob, len(group))
	states := make([]*jobState, len(group))
	for i, slot := range group {
		*op++
		opID := *op
		js := &jobState{slot: slot, span: -1}
		states[i] = js
		jobs[i] = smp.BatchJob{
			Name: slot.path,
			Src: func() (io.ReadCloser, error) {
				js.start = time.Now()
				if b.recording {
					js.span = b.open("corpus", "job", js.parent, opID, 0, js.start)
				}
				return os.Open(slot.path)
			},
			Dsts: func() ([]io.WriteCloser, error) {
				wcs := make([]io.WriteCloser, len(slot.sinks))
				js.open = len(slot.sinks)
				for q, s := range slot.sinks {
					s.reset(js.span)
					s.onDone = func(t time.Time) {
						js.mu.Lock()
						defer js.mu.Unlock()
						if js.open--; js.open == 0 {
							js.end = t
							if js.span >= 0 {
								b.close(js.span, t)
							}
						}
					}
					wcs[q] = s
				}
				return wcs, nil
			},
			Index: func() (*smp.Index, error) {
				var ix *smp.Index
				var err error
				b.call("index", "ReadIndex", js.span, opID, 0, func(int) {
					ix, err = smp.ReadIndex(smp.IndexSidecarPath(slot.path))
				})
				return ix, err
			},
		}
	}
	return jobs, states
}
