package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"smp"
	"smp/internal/core"
	"smp/internal/mmapio"
	"smp/internal/pipeline"
)

// probeBytes caps the document bytes a probe visits per dataset (at least
// one document is always visited).
const probeBytes = 16 << 20

// layerProbes times each layer's public functions from outside, over the
// workload's documents and specs, and reports the per-layer metrics that
// are not counted in the main loop. Every output a probe produces is
// checked against its reference.
func (b *bench) layerProbes(docs []*doc, specs []spec, ref *refs) error {
	ctx := context.Background()
	byDS := map[smp.Dataset][]*doc{}
	for _, ds := range datasets {
		var n int64
		for _, d := range docs {
			if d.ds == ds && (n == 0 || n < int64(probeBytes*b.cfg.scale)) {
				byDS[ds] = append(byDS[ds], d)
				n += int64(len(d.data))
			}
		}
	}
	dir := filepath.Join(b.work, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	// compile: every spec, three times.
	var compiles []time.Duration
	var planBytes int64
	for _, s := range specs {
		for rep := 0; rep < 3; rep++ {
			var pf *smp.Prefilter
			var err error
			compiles = append(compiles, b.call("compile", "Compile", -1, 0, 0, func(int) {
				pf, err = smp.Compile(dtdOf(s.ds), s.paths, smp.Options{})
			}))
			if err != nil {
				return fmt.Errorf("compile %s: %w", s.id, err)
			}
			if rep == 0 {
				planBytes += pf.PlanStats().MemBytes
			}
		}
	}
	b.set("compile.ms_p50", ms(median(compiles)), "ms")
	b.set("compile.plan_kib", float64(planBytes)/1024, "KiB")

	// query: each paper query through the default Project path.
	snk := &sink{b: b}
	var outputs [][]byte
	var cmp, read int64
	for _, s := range paperSpecs() {
		pf, err := smp.Compile(dtdOf(s.ds), s.paths, smp.Options{})
		if err != nil {
			return err
		}
		var n int64
		var busy time.Duration
		for _, d := range byDS[s.ds] {
			var st smp.Stats
			busy += b.call("core", "Project", -1, 0, 0, func(int) {
				snk.reset(-1)
				st, err = pf.Project(ctx, snk, bytes.NewReader(d.data))
			})
			if err != nil {
				return fmt.Errorf("%s: %w", s.id, err)
			}
			if err := ref.check(d.id, s.id, snk.buf); err != nil {
				return err
			}
			n += int64(len(d.data))
			cmp += st.CharComparisons
			read += st.BytesRead
			outputs = append(outputs, append([]byte(nil), snk.buf...))
		}
		b.set("query."+s.id+".mibps", mib(n)/busy.Seconds(), "MiB/s")
	}
	b.set("core.char_comparisons_per_byte", float64(cmp)/float64(read), "ratio")

	// write: memmove of the projected outputs, the ceiling of the write
	// layer.
	var moved int64
	var moveTime time.Duration
	for moveTime < 50*time.Millisecond {
		for _, out := range outputs {
			dst := make([]byte, len(out))
			t0 := time.Now()
			copy(dst, out)
			moveTime += time.Since(t0)
			moved += int64(len(out))
		}
	}
	b.set("write.memmove_mibps", mib(moved)/moveTime.Seconds(), "MiB/s")

	// core: the SWAR scan with each dataset's union scan plan, beside a
	// bytes.IndexByte('<') sweep over the same documents.
	var scanN, memN, cands int64
	var scanT, memT time.Duration
	var replayN int64
	var replayT time.Duration
	var buildN, bindN int64
	var buildT, bindT time.Duration
	var writes, reads, maps []time.Duration
	var sidecar int64
	var w1, wN time.Duration
	var maxBuf int64
	for _, ds := range datasets {
		dspecs := specsOf(specs, ds)
		var plans []*core.Plan
		var ps []string
		for _, s := range dspecs {
			table, err := compileTable(s)
			if err != nil {
				return err
			}
			plans = append(plans, core.NewPlan(table, core.Options{}))
			ps = append(ps, s.paths)
		}
		eng := pipeline.New(plans)
		sc := eng.ScanPlan().NewScanner()
		multi, err := smp.CompileMulti(dtdOf(ds), ps, smp.Options{})
		if err != nil {
			return err
		}
		sinks := make([]*sink, len(dspecs))
		dsts := make([]io.Writer, len(dspecs))
		for q := range sinks {
			sinks[q] = &sink{b: b}
			dsts[q] = sinks[q]
		}
		var buf []core.Candidate
		for _, d := range byDS[ds] {
			for rep := 0; rep < 3; rep++ {
				scanT += b.call("core", "Scan", -1, 0, 0, func(int) {
					buf = sc.Scan(buf[:0], d.data, 0, len(d.data), true)
				})
				scanN += int64(len(d.data))
				memT += b.call("core", "IndexByte", -1, 0, 0, func(int) { memchrSweep(d.data) })
				memN += int64(len(d.data))
			}
			cands += int64(len(buf))

			// index: build, write, read and decode, bind.
			var ix *smp.Index
			buildT += b.call("index", "BuildIndex", -1, 0, 0, func(int) { ix = multi.BuildIndex(d.data) })
			buildN += int64(len(d.data))
			path := filepath.Join(dir, fmt.Sprintf("doc-%d.xml", d.id))
			if err := os.WriteFile(path, d.data, 0o644); err != nil {
				return err
			}
			side := smp.IndexSidecarPath(path)
			for rep := 0; rep < 3; rep++ {
				var err error
				writes = append(writes, b.call("index", "WriteFile", -1, 0, 0, func(int) { err = ix.WriteFile(side) }))
				if err != nil {
					return err
				}
				var rx *smp.Index
				reads = append(reads, b.call("index", "ReadIndex", -1, 0, 0, func(int) { rx, err = smp.ReadIndex(side) }))
				if err != nil {
					return err
				}
				bindT += b.call("index", "Bind", -1, 0, 0, func(int) { err = rx.Bind(d.data) })
				bindN += int64(len(d.data))
				if err != nil {
					return err
				}
				maps = append(maps, mapOnce(b, path))
			}
			if fi, err := os.Stat(side); err == nil {
				sidecar += fi.Size()
			}

			// pipeline: replay the stored candidates into K writers.
			for _, s := range sinks {
				s.reset(-1)
			}
			var rerr error
			replayT += b.call("pipeline", "Replay", -1, 0, 0, func(int) {
				_, rerr = eng.Replay(ctx, dsts, d.data, ix.Candidates(), pipeline.Options{})
			})
			replayN += int64(len(d.data))
			if rerr != nil {
				return fmt.Errorf("replay: %w", rerr)
			}
			for q, s := range dspecs {
				if err := ref.check(d.id, s.id, sinks[q].buf); err != nil {
					return err
				}
			}

			// pipeline: W=nproc against W=1 over the same streamed document.
			for _, w := range []int{1, b.nproc} {
				for _, s := range sinks {
					s.reset(-1)
				}
				var agg smp.Stats
				var err error
				dur := b.call("pipeline", "MultiProject", -1, 0, 0, func(int) {
					_, err = multi.MultiProject(ctx, dsts, bytes.NewReader(d.data), smp.WithWorkers(w), smp.WithStatsInto(&agg))
				})
				if err != nil {
					return err
				}
				if w == 1 {
					w1 += dur
				} else {
					wN += dur
					maxBuf = max(maxBuf, agg.MaxBufferBytes)
				}
			}
			for q, s := range dspecs {
				if err := ref.check(d.id, s.id, sinks[q].buf); err != nil {
					return err
				}
			}
		}
	}
	b.set("core.scan_mibps", mib(scanN)/scanT.Seconds(), "MiB/s")
	b.set("core.memchr_mibps", mib(memN)/memT.Seconds(), "MiB/s")
	b.set("core.scan_of_memchr", (mib(scanN)/scanT.Seconds())/(mib(memN)/memT.Seconds()), "ratio")
	b.set("core.candidates_per_mib", float64(cands)/mib(scanN/3), "count/MiB")
	b.set("pipeline.replay_mibps", mib(replayN)/replayT.Seconds(), "MiB/s")
	b.set("pipeline.w_speedup", w1.Seconds()/wN.Seconds(), "ratio")
	b.set("pipeline.max_buffer_kib", float64(maxBuf)/1024, "KiB")
	b.set("index.build_mibps", mib(buildN)/buildT.Seconds(), "MiB/s")
	b.set("index.write_us_p50", us(median(writes)), "us")
	b.set("index.read_decode_us_p50", us(median(reads)), "us")
	b.set("index.bind_mibps", mib(bindN)/bindT.Seconds(), "MiB/s")
	b.set("index.sidecar_kib_per_mib", float64(sidecar)/1024/mib(buildN), "KiB/MiB")
	b.set("mmapio.map_us_p50", us(median(maps)), "us")
	return nil
}

// memchrSweep visits every '<' of data with bytes.IndexByte: the ceiling a
// keyword scan is compared against.
func memchrSweep(data []byte) int {
	n := 0
	for i := 0; ; {
		j := bytes.IndexByte(data[i:], '<')
		if j < 0 {
			return n
		}
		n++
		i += j + 1
	}
}

// mapOnce times one mmapio.Map of a file.
func mapOnce(b *bench, path string) time.Duration {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	var m *mmapio.Mapping
	d := b.call("mmapio", "Map", -1, 0, 0, func(int) { m, err = mmapio.Map(f) })
	if err == nil {
		m.Close()
	}
	return d
}
