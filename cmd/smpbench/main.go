// Command smpbench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section on the bundled synthetic
// datasets.
//
// Examples:
//
//	smpbench -experiment all
//	smpbench -experiment table1 -xmark 64MiB
//	smpbench -experiment fig7b -medline 32MiB -format markdown
//	smpbench -experiment table2 -queries M1,M5
//
// With -parallel N the harness instead exercises the public batch runner
// (smp.Batch): it generates -docs documents (-xmark bytes each, or
// -medline bytes for a MEDLINE query) and compares serial prefiltering
// against an N-worker pool sharing one compiled plan:
//
//	smpbench -parallel 4 -docs 16 -xmark 4MiB -queries XM13
//
// With -coldstart the harness measures the paper's static/runtime phase
// split directly: for each query it reports the compile time (static
// analysis including plan construction — matcher tables, tag interning,
// vocabulary orders), the first projection after compiling, and the
// steady-state projection time. Because every table is built at compile
// time, the first run should cost the same as the steady state:
//
//	smpbench -coldstart -xmark 4MiB -queries XM1,XM13,M4
//
// Combining -multi K with -intra W runs the unified-pipeline grid: one
// shared scan serving K queries, fanned out across 1..W segment-scan
// workers, each cell verified byte-identical to K independent serial
// passes before it is timed:
//
//	smpbench -multi 4 -intra 4 -xmark 8MiB
//
// With -scan the harness measures the raw candidate-scan kernel in
// isolation (no automaton replay, no output): the active kernel (SWAR
// unless SMP_SCAN_KERNEL=scalar pins the reference), the scalar reference
// kernel, and a pure bytes.IndexByte('<') sweep — the memchr reference,
// i.e. the platform's effective memory bandwidth for anchor finding. Each
// kernel row reports its throughput as a fraction of that reference:
//
//	smpbench -scan -xmark 32MiB
//
// With -index the harness measures the persistent candidate index: per
// query it builds the document's sidecar, then compares repeated
// projection by rescanning against repeated replay of the stored candidate
// stream (byte-identical, verified every round) — the repeated-query
// speedup the sidecar buys and the one-off build cost it charges, also
// given in scans (build time / scan time):
//
//	smpbench -index -xmark 16MiB -queries XM13,M4
//
// Every benchmark mode verifies byte-identity against the serial run
// before timing and exits non-zero on any mismatch, so the harness doubles
// as a correctness gate. With -json FILE the modes append one trajectory
// point {rev, date, note, records} to FILE, where each record is
// {mode, k, w, input, mbps, allocs}; committed BENCH_*.json files track
// this trajectory across revisions. -compare BASE -against FRESH
// -threshold PCT gates a fresh trajectory file against a committed
// baseline, normalizing by each file's memchr reference record when
// present so the check cancels out machine-speed differences.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"smp"
	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/dtd"
	"smp/internal/experiments"
	"smp/internal/paths"
	"smp/internal/stats"
	"smp/internal/xmlgen"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "smpbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("smpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all",
			fmt.Sprintf("experiment to run: one of %v or all", experiments.Names()))
		xmarkSize   = fs.String("xmark", "8MiB", "XMark-like document size")
		medlineSize = fs.String("medline", "8MiB", "MEDLINE-like document size")
		sweep       = fs.String("sweep", "", "comma-separated document sizes for the fig7a sweep (e.g. 1MiB,4MiB,16MiB)")
		budget      = fs.String("budget", "", "memory budget of the in-memory engine for fig7a (e.g. 16MiB)")
		seed        = fs.Uint64("seed", 0, "dataset generator seed")
		queries     = fs.String("queries", "", "comma-separated query IDs to restrict the workload (e.g. XM1,XM13,M5)")
		format      = fs.String("format", "text", "output format: text, markdown or csv")
		parallel    = fs.Int("parallel", 0, "corpus mode: shard a batch of documents across N workers (0 = run the paper experiments)")
		docs        = fs.Int("docs", 16, "corpus mode: number of generated documents in the batch")
		coldstart   = fs.Bool("coldstart", false, "cold-start mode: report compile, first-run and steady-state time per query")
		intra       = fs.Int("intra", 0, "intra-document mode: split one document across N scan workers and compare against the serial run (0 = off)")
		multi       = fs.Int("multi", 0, "multi-query mode: project one document for K queries in one shared scan and compare against K independent passes (0 = off); combine with -intra for the K×W grid")
		scanMode    = fs.Bool("scan", false, "scan-kernel mode: measure raw candidate-scan throughput (SWAR, scalar reference, memchr bandwidth reference)")
		indexMode   = fs.Bool("index", false, "index mode: build each query's candidate-index sidecar once, then compare repeated replay against repeated rescanning (byte-identical, then timed)")
		serveURL    = fs.String("serve", "", "serve mode: load-test a running smpserve at this base URL (e.g. http://localhost:8080)")
		conns       = fs.Int("conns", 8, "serve mode: concurrent connections")
		serveDur    = fs.Duration("duration", 2*time.Second, "serve mode: timed length of each load phase")
		dupRatio    = fs.Float64("dup", 1.0, "serve mode: fraction of requests targeting the shared hot document (the coalescable traffic)")
		rate        = fs.Float64("rate", 0, "serve mode: open-loop arrival rate in requests/s across all connections (0 = closed loop)")
		useBody     = fs.Bool("body", false, "serve mode: re-upload the document in every request body instead of referencing the server's content-addressed cache")
		serveScrape = fs.Bool("metrics", true, "serve mode: verify /healthz build info and scrape /metrics at the end of the run for server-side latency percentiles")
		jsonPath    = fs.String("json", "", "append one trajectory point ({rev,date,note,records}) to this file")
		note        = fs.String("note", "", "free-form note stored in the -json trajectory point")
		comparePath = fs.String("compare", "", "compare mode: committed baseline trajectory file (use with -against)")
		againstPath = fs.String("against", "", "compare mode: fresh trajectory file to gate against -compare")
		threshold   = fs.Float64("threshold", 15, "compare mode: fail on throughput regressions beyond this percentage")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.Config{Seed: *seed}
	var err error
	if cfg.XMarkSize, err = parseSize(*xmarkSize); err != nil {
		return err
	}
	if cfg.MedlineSize, err = parseSize(*medlineSize); err != nil {
		return err
	}
	if *budget != "" {
		if cfg.MemoryBudget, err = parseSize(*budget); err != nil {
			return err
		}
	}
	if *sweep != "" {
		for _, s := range strings.Split(*sweep, ",") {
			v, err := parseSize(s)
			if err != nil {
				return err
			}
			cfg.SweepSizes = append(cfg.SweepSizes, v)
		}
	}
	if *queries != "" {
		cfg.Queries = strings.Split(*queries, ",")
	}

	if *comparePath != "" || *againstPath != "" {
		if *comparePath == "" || *againstPath == "" {
			return fmt.Errorf("compare mode needs both -compare BASELINE and -against FRESH")
		}
		return runCompare(*comparePath, *againstPath, *threshold, stdout)
	}

	blog := &benchLog{note: *note}
	var tables []*stats.Table
	switch {
	case *serveURL != "":
		xmarkExplicit := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "xmark" {
				xmarkExplicit = true
			}
		})
		t, err := runServe(ctx, serveConfig{
			url:      *serveURL,
			conns:    *conns,
			duration: *serveDur,
			dupRatio: *dupRatio,
			rate:     *rate,
			docSize:  serveWorkloadSize(cfg, xmarkExplicit),
			useBody:  *useBody,
			seed:     *seed,
			metrics:  *serveScrape,
		}, blog)
		if err != nil {
			return err
		}
		tables = []*stats.Table{t}
	case *scanMode:
		t, err := runScanKernel(ctx, cfg, blog)
		if err != nil {
			return err
		}
		tables = []*stats.Table{t}
	case *indexMode:
		t, err := runIndexMode(ctx, cfg, blog)
		if err != nil {
			return err
		}
		tables = []*stats.Table{t}
	case *coldstart:
		t, err := runColdStart(ctx, cfg, blog)
		if err != nil {
			return err
		}
		tables = []*stats.Table{t}
	case *multi > 0 && *intra > 0:
		t, err := runGrid(ctx, *multi, *intra, cfg, blog)
		if err != nil {
			return err
		}
		tables = []*stats.Table{t}
	case *parallel > 0:
		t, err := runCorpus(ctx, *parallel, *docs, cfg, blog)
		if err != nil {
			return err
		}
		tables = []*stats.Table{t}
	case *intra > 0:
		t, err := runIntraDoc(ctx, *intra, cfg, blog)
		if err != nil {
			return err
		}
		tables = []*stats.Table{t}
	case *multi > 0:
		t, err := runMultiQuery(ctx, *multi, cfg, blog)
		if err != nil {
			return err
		}
		tables = []*stats.Table{t}
	default:
		var err error
		tables, err = experiments.Run(*experiment, cfg)
		if err != nil {
			return err
		}
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		switch *format {
		case "markdown":
			fmt.Fprint(stdout, t.Markdown())
		case "csv":
			fmt.Fprintf(stdout, "# %s\n%s", t.Title, t.CSV())
		case "text":
			fmt.Fprint(stdout, t.String())
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
	}
	if *jsonPath != "" {
		if err := blog.write(*jsonPath); err != nil {
			return err
		}
	}
	return nil
}

// benchRecord is one machine-readable measurement: the benchmark mode, the
// number of queries K and scan workers W of the configuration, the input
// variant (mmap/stream for projection modes; index/scan for the -index mode;
// the kernel name for -scan), the throughput in MiB/s, and the allocations
// per timed run. Input is part of the record key, so -compare only ever
// gates like against like — an indexed replay is never compared to a scan.
type benchRecord struct {
	Mode   string  `json:"mode"`
	K      int     `json:"k"`
	W      int     `json:"w"`
	Input  string  `json:"input,omitempty"`
	MBps   float64 `json:"mbps"`
	Allocs int64   `json:"allocs"`

	// Latency fields, emitted by the -serve load mode only (K = connection
	// count there; MBps counts document bytes offered).
	QPS   float64 `json:"qps,omitempty"`
	P50Ms float64 `json:"p50_ms,omitempty"`
	P95Ms float64 `json:"p95_ms,omitempty"`
	P99Ms float64 `json:"p99_ms,omitempty"`
}

// key identifies a record across trajectory points: two points' records
// with equal keys measure the same configuration.
func (r benchRecord) key() string {
	return fmt.Sprintf("%s k=%d w=%d input=%s", r.Mode, r.K, r.W, r.Input)
}

// benchPoint is one -json invocation of the harness: the git revision and
// date it measured, an optional free-form note, and its records. Committed
// BENCH_*.json files are arrays of points — the performance trajectory of
// the repository.
type benchPoint struct {
	Rev  string `json:"rev"`
	Date string `json:"date"`
	Note string `json:"note,omitempty"`
	// Dirty reports uncommitted changes to tracked files at Rev (absent
	// when git could not tell), so a point measured on an edited tree is
	// not mistaken for Rev's own.
	Dirty *bool `json:"dirty,omitempty"`
	// Stash names the dirty tree's content as a `git stash create` commit
	// (absent on a clean tree, or when git could not make one): the exact
	// source a point measured, recoverable with `git show` while the object
	// exists.
	Stash string `json:"stash,omitempty"`
	// CPU, GOMAXPROCS and Go name the machine and toolchain the point ran
	// on. Points written before these fields existed leave them empty.
	CPU        string        `json:"cpu,omitempty"`
	GOMAXPROCS int           `json:"gomaxprocs,omitempty"`
	Go         string        `json:"go,omitempty"`
	Records    []benchRecord `json:"records"`
}

// benchLog collects the records of one harness invocation for -json.
type benchLog struct {
	note    string
	records []benchRecord
}

func (l *benchLog) add(mode string, k, w int, input string, mbps float64, allocs int64) {
	l.records = append(l.records, benchRecord{Mode: mode, K: k, W: w, Input: input, MBps: mbps, Allocs: allocs})
}

// addLatency records one serve-mode phase with its latency distribution.
func (l *benchLog) addLatency(mode string, k, w int, input string, mbps, qps float64, p50, p95, p99 time.Duration) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	l.records = append(l.records, benchRecord{
		Mode: mode, K: k, W: w, Input: input, MBps: mbps,
		QPS: qps, P50Ms: ms(p50), P95Ms: ms(p95), P99Ms: ms(p99),
	})
}

// write appends this invocation as one trajectory point to path. An
// existing trajectory (or a legacy flat record array) is preserved; a
// missing or unreadable file starts a fresh trajectory.
func (l *benchLog) write(path string) error {
	if l.records == nil {
		l.records = []benchRecord{}
	}
	trajectory, err := readTrajectory(path)
	if err != nil {
		trajectory = nil
	}
	dirty := gitDirty()
	var stash string
	if dirty != nil && *dirty {
		stash = gitStash("")
	}
	trajectory = append(trajectory, benchPoint{
		Rev:        gitRev(),
		Date:       time.Now().UTC().Format("2006-01-02"),
		Note:       l.note,
		Dirty:      dirty,
		Stash:      stash,
		CPU:        cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Records:    l.records,
	})
	data, err := json.MarshalIndent(trajectory, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readTrajectory loads a trajectory file. A legacy flat record array (the
// pre-trajectory -json format) is wrapped as a single point.
func readTrajectory(path string) ([]benchPoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var trajectory []benchPoint
	if err := json.Unmarshal(data, &trajectory); err == nil {
		return trajectory, nil
	}
	var records []benchRecord
	if err := json.Unmarshal(data, &records); err != nil {
		return nil, fmt.Errorf("%s: neither a trajectory nor a record array: %w", path, err)
	}
	return []benchPoint{{Rev: "unknown", Records: records}}, nil
}

// gitRev best-effort resolves the short revision of the working tree; the
// trajectory stays usable outside a git checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// gitDirty reports whether tracked files differ from HEAD, or nil outside
// a git checkout.
func gitDirty() *bool {
	out, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	if err != nil {
		return nil
	}
	dirty := len(bytes.TrimSpace(out)) > 0
	return &dirty
}

// gitStash records the working tree's tracked changes as a dangling stash
// commit and returns its hash, leaving the tree, the index and the stash
// list untouched; "" when git cannot make one. The commit is made under a
// fixed identity, so a checkout without user.name/user.email (a CI runner)
// still records one. dir "" is the current directory.
func gitStash(dir string) string {
	cmd := exec.Command("git", "stash", "create")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(),
		"GIT_AUTHOR_NAME=smpbench", "GIT_AUTHOR_EMAIL=smpbench@localhost",
		"GIT_COMMITTER_NAME=smpbench", "GIT_COMMITTER_EMAIL=smpbench@localhost")
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// cpuModel names the processor from /proc/cpuinfo, falling back to the
// architecture where that file does not exist.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// nopWriteCloser adapts an in-memory buffer to the BatchJob.Dst contract.
type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// runCorpus is the -parallel mode: it generates a batch of XMark-like
// documents, verifies that a worker pool run (the public smp.Batch API,
// workers sharing one compiled plan) produces byte-identical output to a
// serial Project on every document, then prefilters the batch serially and
// with the pool and reports the aggregate throughput of both plus the
// speedup.
func runCorpus(ctx context.Context, workers, docCount int, cfg experiments.Config, blog *benchLog) (*stats.Table, error) {
	queryID := "XM13"
	if len(cfg.Queries) > 0 {
		queryID = cfg.Queries[0]
	}
	q, ok := xmlgen.QueryByID(queryID)
	if !ok {
		return nil, fmt.Errorf("unknown query %q", queryID)
	}
	dtdSource, gen, docSize := datasetFor(q, cfg)
	pf, err := smp.Compile(dtdSource, q.Paths, smp.Options{})
	if err != nil {
		return nil, err
	}

	docs := make([][]byte, docCount)
	jobs := make([]smp.BatchJob, docCount)
	for i := range jobs {
		docs[i] = gen(xmlgen.Config{TargetSize: docSize, Seed: cfg.Seed + uint64(i) + 1})
		jobs[i] = smp.BatchFromBytes(fmt.Sprintf("doc%02d", i), docs[i])
	}

	// Verify before timing: the pooled run must reproduce the serial
	// engine's output byte for byte on every document.
	want := make([][]byte, docCount)
	for i, doc := range docs {
		var buf bytes.Buffer
		if _, err := pf.Project(ctx, &buf, bytes.NewReader(doc)); err != nil {
			return nil, fmt.Errorf("document doc%02d: serial projection: %w", i, err)
		}
		want[i] = buf.Bytes()
	}
	got := make([]bytes.Buffer, docCount)
	verifyJobs := make([]smp.BatchJob, docCount)
	for i := range verifyJobs {
		dst := &got[i]
		verifyJobs[i] = smp.BatchFromBytes(fmt.Sprintf("doc%02d", i), docs[i])
		verifyJobs[i].Dst = func() (io.WriteCloser, error) { return nopWriteCloser{dst}, nil }
	}
	results, _ := (&smp.Batch{Prefilter: pf, Workers: workers}).Run(ctx, verifyJobs)
	for _, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("document %s: %v", res.Name, res.Err)
		}
	}
	for i := range got {
		if !bytes.Equal(got[i].Bytes(), want[i]) {
			return nil, fmt.Errorf("document doc%02d: %d-worker batch output differs from the serial run (%d vs %d bytes)",
				i, workers, got[i].Len(), len(want[i]))
		}
	}

	t := stats.NewTable(fmt.Sprintf("Corpus prefiltering, %d x %s, query %s", docCount, stats.FormatBytes(docSize), q.ID),
		"Workers", "Wall Time", "Aggregate MiB/s", "Output %", "Failed", "Speedup")
	var serial smp.BatchAggregate
	for _, w := range []int{1, workers} {
		batch := smp.Batch{Prefilter: pf, Workers: w}
		results, agg := batch.Run(ctx, jobs)
		for _, res := range results {
			if res.Err != nil {
				return nil, fmt.Errorf("document %s: %v", res.Name, res.Err)
			}
		}
		if w == 1 {
			serial = agg
		}
		blog.add("corpus", 1, w, "stream", agg.ThroughputMBps(), 0)
		t.AddRow(
			strconv.Itoa(w),
			stats.FormatDuration(agg.Elapsed),
			stats.FormatFloat(agg.ThroughputMBps()),
			stats.FormatPercent(100*agg.OutputRatio()),
			strconv.Itoa(agg.Failed),
			stats.FormatRatio(float64(serial.Elapsed), float64(agg.Elapsed)),
		)
		if w == workers && w == 1 {
			break // -parallel 1: the serial row is the whole story
		}
	}
	t.AddNote("%s", "pooled output verified byte-identical to the serial run on every document before timing")
	return t, nil
}

// runIntraDoc is the -intra mode: it generates one document, prefilters it
// serially and at increasing segment-scan worker counts (the Project API
// with WithWorkers), verifies
// the parallel output is byte-identical, and reports the single-stream
// throughput and speedup of each configuration.
func runIntraDoc(ctx context.Context, workers int, cfg experiments.Config, blog *benchLog) (*stats.Table, error) {
	queryID := "XM13"
	if len(cfg.Queries) > 0 {
		queryID = cfg.Queries[0]
	}
	q, ok := xmlgen.QueryByID(queryID)
	if !ok {
		return nil, fmt.Errorf("unknown query %q", queryID)
	}
	dtdSource, gen, docSize := datasetFor(q, cfg)
	pf, err := smp.Compile(dtdSource, q.Paths, smp.Options{})
	if err != nil {
		return nil, err
	}
	doc := gen(xmlgen.Config{TargetSize: docSize, Seed: cfg.Seed + 1})

	var wantBuf bytes.Buffer
	if _, err := pf.Project(ctx, &wantBuf, bytes.NewReader(doc)); err != nil {
		return nil, fmt.Errorf("%s: serial projection: %w", q.ID, err)
	}
	want := wantBuf.Bytes()

	const rounds = 3
	t := stats.NewTable(
		fmt.Sprintf("Intra-document parallel projection, one %s document, query %s", stats.FormatBytes(docSize), q.ID),
		"Workers", "Wall Time", "MiB/s", "Output %", "Speedup")
	var serialElapsed int64
	for _, w := range workerLadder(workers) {
		var best int64
		var outBytes int64
		for i := 0; i < rounds; i++ {
			timer := stats.StartTimer()
			var outBuf bytes.Buffer
			var runStats smp.Stats
			_, err = pf.Project(ctx, &outBuf, bytes.NewReader(doc), smp.WithWorkers(w), smp.WithStatsInto(&runStats))
			out := outBuf.Bytes()
			elapsed := int64(timer.Elapsed())
			if err != nil {
				return nil, fmt.Errorf("%s: %d workers: %w", q.ID, w, err)
			}
			if !bytes.Equal(out, want) {
				return nil, fmt.Errorf("%s: %d workers: output differs from serial projection (%d vs %d bytes)",
					q.ID, w, len(out), len(want))
			}
			if i == 0 || elapsed < best {
				best = elapsed
			}
			outBytes = runStats.BytesWritten
		}
		if w == 1 {
			serialElapsed = best
		}
		blog.add("intra", 1, w, "stream", float64(len(doc))/(1<<20)/time.Duration(best).Seconds(), 0)
		t.AddRow(
			strconv.Itoa(w),
			stats.FormatDuration(time.Duration(best)),
			stats.FormatFloat(float64(len(doc))/(1<<20)/time.Duration(best).Seconds()),
			stats.FormatPercent(100*float64(outBytes)/float64(len(doc))),
			stats.FormatRatio(float64(serialElapsed), float64(best)),
		)
	}
	t.AddNote("%s", "parallel output verified byte-identical to the serial run; speedup needs real cores — on a single-CPU container the pipeline is expected to run flat at best")
	return t, nil
}

// runMultiQuery is the -multi mode: it generates one document, prefilters it
// once per query with standalone engines (K independent passes) and once for
// all K queries together in a single shared scan (smp.MultiPrefilter),
// verifies every per-query output is byte-identical, and reports both wall
// times and the speedup. The win is algorithmic — one document scan instead
// of K — so it shows on a single core.
func runMultiQuery(ctx context.Context, k int, cfg experiments.Config, blog *benchLog) (*stats.Table, error) {
	qs, queryIDs, doc, mpf, err := multiWorkload(k, cfg)
	if err != nil {
		return nil, err
	}

	const rounds = 3
	t := stats.NewTable(
		fmt.Sprintf("Multi-query shared projection, one %s document, %d queries (%s)",
			stats.FormatBytes(int64(len(doc))), len(qs), strings.Join(queryIDs, ",")),
		"Mode", "Input", "Wall Time", "MiB/s", "Output %", "Speedup")

	// Baseline: K independent standalone passes over the same document.
	want := make([][]byte, len(qs))
	var independent int64
	for round := 0; round < rounds; round++ {
		timer := stats.StartTimer()
		for i := 0; i < mpf.Len(); i++ {
			var out bytes.Buffer
			if _, err := mpf.Query(i).Project(ctx, &out, bytes.NewReader(doc)); err != nil {
				return nil, fmt.Errorf("%s: independent pass: %w", qs[i].ID, err)
			}
			want[i] = out.Bytes()
		}
		if elapsed := int64(timer.Elapsed()); round == 0 || elapsed < independent {
			independent = elapsed
		}
	}
	var wantTotal int64
	for _, w := range want {
		wantTotal += int64(len(w))
	}
	inputMiB := float64(len(doc)) / (1 << 20)
	t.AddRow(
		fmt.Sprintf("%d independent passes", mpf.Len()),
		"stream",
		stats.FormatDuration(time.Duration(independent)),
		stats.FormatFloat(inputMiB*float64(mpf.Len())/time.Duration(independent).Seconds()),
		stats.FormatPercent(100*float64(wantTotal)/float64(len(doc)*mpf.Len())),
		stats.FormatRatio(1, 1),
	)

	// The shared-scan pass runs twice: once from an in-memory stream and
	// once from a regular file, where the engine memory-maps the document
	// and scans it in place. The Input column reports the path the engine
	// actually took (Stats.ZeroCopyInput), so a platform without mmap
	// support shows stream for both rows.
	docFile, err := writeTempDoc(doc)
	if err != nil {
		return nil, err
	}
	defer os.Remove(docFile)
	outs := make([]bytes.Buffer, mpf.Len())
	for _, fromFile := range []bool{false, true} {
		var shared int64
		var aggOut int64
		input := "stream"
		for round := 0; round < rounds; round++ {
			dsts := make([]io.Writer, mpf.Len())
			for i := range outs {
				outs[i].Reset()
				dsts[i] = &outs[i]
			}
			src := io.Reader(bytes.NewReader(doc))
			var f *os.File
			if fromFile {
				if f, err = os.Open(docFile); err != nil {
					return nil, err
				}
				src = f
			}
			var agg smp.Stats
			timer := stats.StartTimer()
			_, err := mpf.MultiProject(ctx, dsts, src, smp.WithStatsInto(&agg))
			elapsed := int64(timer.Elapsed())
			if f != nil {
				f.Close()
			}
			if err != nil {
				return nil, fmt.Errorf("shared pass: %w", err)
			}
			if round == 0 || elapsed < shared {
				shared = elapsed
			}
			aggOut = agg.BytesWritten
			if agg.ZeroCopyInput {
				input = "mmap"
			}
		}
		for i := range outs {
			if !bytes.Equal(outs[i].Bytes(), want[i]) {
				return nil, fmt.Errorf("%s: shared %s output differs from the independent pass (%d vs %d bytes)",
					qs[i].ID, input, outs[i].Len(), len(want[i]))
			}
		}
		blog.add("multi", mpf.Len(), 1, input, inputMiB*float64(mpf.Len())/time.Duration(shared).Seconds(), 0)
		t.AddRow(
			"1 shared scan",
			input,
			stats.FormatDuration(time.Duration(shared)),
			stats.FormatFloat(inputMiB*float64(mpf.Len())/time.Duration(shared).Seconds()),
			stats.FormatPercent(100*float64(aggOut)/float64(len(doc)*mpf.Len())),
			stats.FormatRatio(float64(independent), float64(shared)),
		)
	}
	t.AddNote("every per-query output verified byte-identical to its independent pass; MiB/s counts the document once per query served (one scan amortizes across %d queries); input=mmap scans the file in place with zero copies", mpf.Len())
	return t, nil
}

// writeTempDoc materializes a generated document as a regular file so a
// benchmark can exercise the zero-copy mmap input path. The caller removes
// the returned path.
func writeTempDoc(doc []byte) (string, error) {
	f, err := os.CreateTemp("", "smpbench-*.xml")
	if err != nil {
		return "", err
	}
	if _, err := f.Write(doc); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// multiWorkload resolves the workload shared by the multi-query modes
// (-multi alone and the -multi/-intra grid): the first K benchmark queries
// of one dataset (or cfg.Queries verbatim), one generated document, and the
// compiled MultiPrefilter.
func multiWorkload(k int, cfg experiments.Config) ([]xmlgen.Query, []string, []byte, *smp.MultiPrefilter, error) {
	queryIDs := cfg.Queries
	if len(queryIDs) == 0 {
		all := xmlgen.XMarkQueries()
		if k > len(all) {
			k = len(all)
		}
		for _, q := range all[:k] {
			queryIDs = append(queryIDs, q.ID)
		}
	}
	qs := make([]xmlgen.Query, len(queryIDs))
	for i, id := range queryIDs {
		q, ok := xmlgen.QueryByID(id)
		if !ok {
			return nil, nil, nil, nil, fmt.Errorf("unknown query %q", id)
		}
		qs[i] = q
	}
	dtdSource, gen, docSize := datasetFor(qs[0], cfg)
	for _, q := range qs[1:] {
		if d, _, _ := datasetFor(q, cfg); d != dtdSource {
			return nil, nil, nil, nil, fmt.Errorf("multi-query mode needs queries from one dataset (got %s and %s)", qs[0].ID, q.ID)
		}
	}
	doc := gen(xmlgen.Config{TargetSize: docSize, Seed: cfg.Seed + 1})

	specs := make([]string, len(qs))
	for i, q := range qs {
		specs[i] = q.Paths
	}
	mpf, err := smp.CompileMulti(dtdSource, specs, smp.Options{})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return qs, queryIDs, doc, mpf, nil
}

// runGrid is the combined -multi K -intra W mode: one shared scan serves K
// queries while the candidate scan itself fans out across 1..W segment
// workers — the full unified K×W pipeline. Every cell is verified
// byte-identical to K independent serial passes before its timing counts.
func runGrid(ctx context.Context, k, workers int, cfg experiments.Config, blog *benchLog) (*stats.Table, error) {
	qs, queryIDs, doc, mpf, err := multiWorkload(k, cfg)
	if err != nil {
		return nil, err
	}

	// Reference: K independent serial passes with standalone engines.
	want := make([][]byte, mpf.Len())
	for i := range want {
		var out bytes.Buffer
		if _, err := mpf.Query(i).Project(ctx, &out, bytes.NewReader(doc)); err != nil {
			return nil, fmt.Errorf("%s: independent pass: %w", qs[i].ID, err)
		}
		want[i] = out.Bytes()
	}

	const rounds = 3
	t := stats.NewTable(
		fmt.Sprintf("Unified K×W pipeline, one %s document, %d queries (%s)",
			stats.FormatBytes(int64(len(doc))), len(qs), strings.Join(queryIDs, ",")),
		"Scan Workers", "Wall Time", "MiB/s", "Speedup")
	outs := make([]bytes.Buffer, mpf.Len())
	dsts := make([]io.Writer, mpf.Len())
	var base int64
	for _, w := range workerLadder(workers) {
		var best int64
		for round := 0; round < rounds; round++ {
			for i := range outs {
				outs[i].Reset()
				dsts[i] = &outs[i]
			}
			timer := stats.StartTimer()
			if _, err := mpf.MultiProject(ctx, dsts, bytes.NewReader(doc), smp.WithWorkers(w)); err != nil {
				return nil, fmt.Errorf("%d workers: %w", w, err)
			}
			elapsed := int64(timer.Elapsed())
			for i := range outs {
				if !bytes.Equal(outs[i].Bytes(), want[i]) {
					return nil, fmt.Errorf("%s: %d workers: output differs from the independent serial pass (%d vs %d bytes)",
						qs[i].ID, w, outs[i].Len(), len(want[i]))
				}
			}
			if round == 0 || elapsed < best {
				best = elapsed
			}
		}
		if w == 1 {
			base = best
		}
		mbps := float64(len(doc)) / (1 << 20) * float64(mpf.Len()) / time.Duration(best).Seconds()
		blog.add("grid", mpf.Len(), w, "stream", mbps, 0)
		t.AddRow(
			strconv.Itoa(w),
			stats.FormatDuration(time.Duration(best)),
			stats.FormatFloat(mbps),
			stats.FormatRatio(float64(base), float64(best)),
		)
	}
	t.AddNote("every cell verified byte-identical to %d independent serial passes before timing; MiB/s counts the document once per query served; scan-worker speedup needs real cores", mpf.Len())
	return t, nil
}

// workerLadder returns 1, 2, 4, ... up to and including max.
func workerLadder(max int) []int {
	ladder := []int{1}
	for w := 2; w < max; w *= 2 {
		ladder = append(ladder, w)
	}
	if max > 1 {
		ladder = append(ladder, max)
	}
	return ladder
}

// runColdStart is the -coldstart mode: for each query it times the static
// analysis (DTD parse, table compilation, plan construction with all matcher
// tables), the first projection after compiling and the steady-state
// projection, separating the paper's static phase from its runtime phase.
// With the Plan layer the first run pays no lazy table construction, so the
// First/Steady ratio should sit near 1. Each query runs twice — from an
// in-memory stream and from a regular file, where the engine memory-maps
// the input — with a fresh compile per variant so both First runs are
// genuine cold starts. The Input column reports the path the engine
// actually took (stream on platforms without mmap support).
func runColdStart(ctx context.Context, cfg experiments.Config, blog *benchLog) (*stats.Table, error) {
	queryIDs := cfg.Queries
	if len(queryIDs) == 0 {
		queryIDs = []string{"XM1", "XM13", "M4"}
	}

	t := stats.NewTable("Cold start — static analysis vs. first vs. steady-state run",
		"Query", "Input", "Compile", "Plan Bytes", "Matchers", "First Run", "Steady Run", "First/Steady")
	for _, id := range queryIDs {
		q, ok := xmlgen.QueryByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown query %q", id)
		}
		dtdSource, gen, docSize := datasetFor(q, cfg)
		doc := gen(xmlgen.Config{TargetSize: docSize, Seed: cfg.Seed + 1})
		docFile, err := writeTempDoc(doc)
		if err != nil {
			return nil, err
		}

		for _, fromFile := range []bool{false, true} {
			compileTimer := stats.StartTimer()
			pf, err := smp.Compile(dtdSource, q.Paths, smp.Options{})
			if err != nil {
				os.Remove(docFile)
				return nil, fmt.Errorf("%s: %w", q.ID, err)
			}
			compileElapsed := compileTimer.Elapsed()

			input := "stream"
			runOnce := func() (time.Duration, error) {
				src := io.Reader(bytes.NewReader(doc))
				var f *os.File
				if fromFile {
					var err error
					if f, err = os.Open(docFile); err != nil {
						return 0, err
					}
					defer f.Close()
					src = f
				}
				var runStats smp.Stats
				runTimer := stats.StartTimer()
				if _, err := pf.Project(ctx, io.Discard, src, smp.WithStatsInto(&runStats)); err != nil {
					return 0, err
				}
				elapsed := runTimer.Elapsed()
				if runStats.ZeroCopyInput {
					input = "mmap"
				}
				return elapsed, nil
			}

			first, err := runOnce()
			if err != nil {
				os.Remove(docFile)
				return nil, fmt.Errorf("%s: %w", q.ID, err)
			}

			// Steady state: the fastest of a few warmed runs.
			steady := first
			for i := 0; i < 5; i++ {
				elapsed, err := runOnce()
				if err != nil {
					os.Remove(docFile)
					return nil, fmt.Errorf("%s: %w", q.ID, err)
				}
				if elapsed < steady {
					steady = elapsed
				}
			}

			ps := pf.PlanStats()
			blog.add("coldstart", 1, 1, input, float64(len(doc))/(1<<20)/steady.Seconds(), 0)
			t.AddRow(
				q.ID,
				input,
				stats.FormatDuration(compileElapsed),
				stats.FormatBytes(ps.MemBytes),
				strconv.Itoa(ps.SingleMatchers+ps.MultiMatchers),
				stats.FormatDuration(first),
				stats.FormatDuration(steady),
				stats.FormatRatio(float64(first), float64(steady)),
			)
		}
		os.Remove(docFile)
	}
	t.AddNote("%s", "compile covers the full static analysis including plan construction (matcher tables, tag interning, vocabulary orders); the first run builds nothing lazily, so First/Steady ≈ 1 up to cache warmth; input=mmap scans the file in place with zero copies")
	return t, nil
}

// runScanKernel is the -scan mode: it measures the raw candidate-scan
// kernel on one generated document, with no automaton replay and no output
// — the layer the paper's "prefiltering at I/O speed" claim lives in.
// Three rows: the active kernel (SWAR unless SMP_SCAN_KERNEL=scalar pins
// the scalar reference), the scalar reference kernel, and a pure
// bytes.IndexByte('<') sweep — the memchr reference, i.e. the platform's
// effective memory bandwidth for anchor finding. Each row reports its
// throughput as a fraction of that reference. Both kernels' candidate
// streams are compared before timing, so the mode doubles as a full-size
// differential gate.
func runScanKernel(ctx context.Context, cfg experiments.Config, blog *benchLog) (*stats.Table, error) {
	queryID := "XM13"
	if len(cfg.Queries) > 0 {
		queryID = cfg.Queries[0]
	}
	q, ok := xmlgen.QueryByID(queryID)
	if !ok {
		return nil, fmt.Errorf("unknown query %q", queryID)
	}
	dtdSource, gen, docSize := datasetFor(q, cfg)
	doc := gen(xmlgen.Config{TargetSize: docSize, Seed: cfg.Seed + 1})

	schema, err := dtd.Parse(dtdSource)
	if err != nil {
		return nil, err
	}
	set, err := paths.ParseSet(q.Paths)
	if err != nil {
		return nil, err
	}
	table, err := compile.Compile(schema, set, compile.Options{})
	if err != nil {
		return nil, err
	}
	sp := core.NewScanPlan(core.NewPlan(table, core.Options{}))

	active := "swar"
	if os.Getenv("SMP_SCAN_KERNEL") == "scalar" {
		active = "scalar"
	}

	// Differential gate before timing: the dispatching kernel must emit
	// exactly the scalar reference kernel's candidate stream.
	var activeCands, scalarCands []core.Candidate
	activeCands = sp.NewScanner().Scan(activeCands, doc, 0, len(doc), true)
	scalarCands = sp.NewScanner().ScanScalar(scalarCands, doc, 0, len(doc), true)
	if len(activeCands) != len(scalarCands) {
		return nil, fmt.Errorf("kernel divergence: %d candidates (%s) vs %d (scalar)",
			len(activeCands), active, len(scalarCands))
	}
	for i := range activeCands {
		if activeCands[i] != scalarCands[i] {
			return nil, fmt.Errorf("kernel divergence at candidate %d: %+v (%s) vs %+v (scalar)",
				i, activeCands[i], active, scalarCands[i])
		}
	}

	// Scanner scratch and the candidate buffer persist across rounds,
	// matching the engine's steady state: the first (untimed) warmup round
	// pays the buffer growth, the timed rounds reuse it.
	swarScanner, scalarScanner := sp.NewScanner(), sp.NewScanner()
	var swarDst, scalarDst []core.Candidate
	kernels := []struct {
		name  string // trajectory record key, stable across revisions
		label string // table row label
		run   func() int
	}{
		{"scan", fmt.Sprintf("scan (%s)", active), func() int {
			swarDst = swarScanner.Scan(swarDst[:0], doc, 0, len(doc), true)
			return len(swarDst)
		}},
		{"scalar", "scalar reference", func() int {
			scalarDst = scalarScanner.ScanScalar(scalarDst[:0], doc, 0, len(doc), true)
			return len(scalarDst)
		}},
		{"memchr", "memchr (IndexByte '<')", func() int {
			n := 0
			for off := 0; off < len(doc); {
				i := bytes.IndexByte(doc[off:], '<')
				if i < 0 {
					break
				}
				off += i + 1
				n++
			}
			return n
		}},
	}

	const rounds = 5
	type measurement struct {
		best   time.Duration
		allocs int64
		count  int
	}
	results := make([]measurement, len(kernels))
	var memchrBest time.Duration
	for ki, k := range kernels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var m measurement
		m.count = k.run() // warmup: grow the candidate buffer, fault in the document
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for round := 0; round < rounds; round++ {
			timer := stats.StartTimer()
			m.count = k.run()
			if elapsed := timer.Elapsed(); round == 0 || elapsed < m.best {
				m.best = elapsed
			}
		}
		runtime.ReadMemStats(&ms1)
		m.allocs = int64(ms1.Mallocs-ms0.Mallocs) / rounds
		results[ki] = m
		if k.name == "memchr" {
			memchrBest = m.best
		}
	}

	t := stats.NewTable(
		fmt.Sprintf("Scan kernel bandwidth, one %s document, query %s vocabulary", stats.FormatBytes(docSize), q.ID),
		"Kernel", "Wall Time", "MiB/s", "% of memchr", "Allocs/Run", "Matches")
	inputMiB := float64(len(doc)) / (1 << 20)
	for ki, k := range kernels {
		m := results[ki]
		mbps := inputMiB / m.best.Seconds()
		blog.add("scan", 1, 1, k.name, mbps, m.allocs)
		t.AddRow(
			k.label,
			stats.FormatDuration(m.best),
			stats.FormatFloat(mbps),
			stats.FormatPercent(100*memchrBest.Seconds()/m.best.Seconds()),
			strconv.FormatInt(m.allocs, 10),
			strconv.Itoa(m.count),
		)
	}
	t.AddNote("candidate discovery only, no automaton replay or output; memchr is a pure bytes.IndexByte('<') sweep — the platform's memory-bandwidth reference for anchor finding; Matches counts candidates for the kernels and raw '<' anchors for memchr; active kernel: %s (pin with SMP_SCAN_KERNEL=scalar)", active)
	return t, nil
}

// runIndexMode is the -index mode: for each query it builds the document's
// candidate-index sidecar once (timed — the one-off cost a corpus pays per
// document), round-trips it through the wire encoding exactly as a later
// process would load it, then compares repeated projection by rescanning
// against repeated replay of the stored candidate stream. Every replay round
// is byte-compared against the scan output before its timing counts, so the
// mode doubles as an end-to-end gate on the index subsystem. Trajectory
// records: mode index-<dataset> with input=scan vs input=index (the speedup
// pair, never cross-compared), and index-build-<dataset> for the build cost.
func runIndexMode(ctx context.Context, cfg experiments.Config, blog *benchLog) (*stats.Table, error) {
	queryIDs := cfg.Queries
	if len(queryIDs) == 0 {
		queryIDs = []string{"XM13", "M4"}
	}
	const rounds = 5
	t := stats.NewTable("Persistent candidate index — build once, replay repeated queries",
		"Query", "Doc", "Build", "Build (scans)", "Sidecar", "Scan MiB/s", "Replay MiB/s", "Speedup")
	var refDoc []byte // last generated document; carries the memchr reference
	for _, id := range queryIDs {
		q, ok := xmlgen.QueryByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown query %q", id)
		}
		dtdSource, gen, docSize := datasetFor(q, cfg)
		ds := "xmark"
		if strings.HasPrefix(q.ID, "M") {
			ds = "medline"
		}
		doc := gen(xmlgen.Config{TargetSize: docSize, Seed: cfg.Seed + 1})
		refDoc = doc
		pf, err := smp.Compile(dtdSource, q.Paths, smp.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.ID, err)
		}

		// Baseline: the repeated-query cost without an index — every round
		// re-searches the document for keyword occurrences.
		var want []byte
		var scanBest int64
		for round := 0; round < rounds; round++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var out bytes.Buffer
			timer := stats.StartTimer()
			if _, err := pf.Project(ctx, &out, bytes.NewReader(doc)); err != nil {
				return nil, fmt.Errorf("%s: scan: %w", q.ID, err)
			}
			elapsed := int64(timer.Elapsed())
			if round == 0 || elapsed < scanBest {
				scanBest = elapsed
			}
			want = out.Bytes()
		}

		// The build is timed like the scan and the replay: best of rounds.
		var built *smp.Index
		var buildBest time.Duration
		for round := 0; round < rounds; round++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			timer := stats.StartTimer()
			built = pf.BuildIndex(doc)
			if elapsed := timer.Elapsed(); round == 0 || elapsed < buildBest {
				buildBest = elapsed
			}
		}
		enc, err := built.Encode()
		if err != nil {
			return nil, fmt.Errorf("%s: encode: %w", q.ID, err)
		}
		ix, err := smp.DecodeIndex(enc)
		if err != nil {
			return nil, fmt.Errorf("%s: decode: %w", q.ID, err)
		}
		if err := ix.Bind(doc); err != nil {
			return nil, fmt.Errorf("%s: bind: %w", q.ID, err)
		}

		var replayBest int64
		for round := 0; round < rounds; round++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var out bytes.Buffer
			var st smp.Stats
			timer := stats.StartTimer()
			if _, err := pf.Project(ctx, &out, nil, smp.WithIndex(ix), smp.WithStatsInto(&st)); err != nil {
				return nil, fmt.Errorf("%s: replay: %w", q.ID, err)
			}
			elapsed := int64(timer.Elapsed())
			if st.IndexHits != 1 {
				return nil, fmt.Errorf("%s: replay round %d fell back to scanning", q.ID, round)
			}
			if !bytes.Equal(out.Bytes(), want) {
				return nil, fmt.Errorf("%s: replay output differs from the scan path (%d vs %d bytes)",
					q.ID, out.Len(), len(want))
			}
			if round == 0 || elapsed < replayBest {
				replayBest = elapsed
			}
		}

		inputMiB := float64(len(doc)) / (1 << 20)
		scanMBps := inputMiB / time.Duration(scanBest).Seconds()
		replayMBps := inputMiB / time.Duration(replayBest).Seconds()
		blog.add("index-build-"+ds, 1, 1, "index", inputMiB/buildBest.Seconds(), 0)
		blog.add("index-"+ds, 1, 1, "scan", scanMBps, 0)
		blog.add("index-"+ds, 1, 1, "index", replayMBps, 0)
		t.AddRow(
			q.ID,
			stats.FormatBytes(int64(len(doc))),
			stats.FormatDuration(buildBest),
			stats.FormatFloat(float64(buildBest)/float64(scanBest)),
			stats.FormatBytes(int64(len(enc))),
			stats.FormatFloat(scanMBps),
			stats.FormatFloat(replayMBps),
			stats.FormatRatio(float64(scanBest), float64(replayBest)),
		)
	}
	// A memchr bandwidth reference over the last document, recorded under the
	// same key -scan mode uses, so -compare can normalize index trajectories
	// by machine speed exactly as it normalizes scan trajectories.
	if len(refDoc) > 0 {
		var memchrBest time.Duration
		for round := 0; round < rounds; round++ {
			timer := stats.StartTimer()
			for off := 0; off < len(refDoc); {
				i := bytes.IndexByte(refDoc[off:], '<')
				if i < 0 {
					break
				}
				off += i + 1
			}
			if elapsed := timer.Elapsed(); round == 0 || elapsed < memchrBest {
				memchrBest = elapsed
			}
		}
		blog.add("scan", 1, 1, "memchr", float64(len(refDoc))/(1<<20)/memchrBest.Seconds(), 0)
	}
	t.AddNote("%s", "every replay round byte-compared against the scan path before timing; the sidecar is decoded from its wire encoding and hash-verified against the document, exactly as a later process would load it; build is the one-off cost a corpus pays per document, Build (scans) the same cost in scan-path queries (build time / scan time), so a sidecar pays for itself after about that many queries; scan, build and replay are each the best of the rounds")
	return t, nil
}

// runCompare is the -compare mode, the CI regression gate: it loads two
// trajectory files, takes the latest point of each, and fails on any
// configuration whose throughput dropped more than threshold percent.
// When both points carry the memchr bandwidth reference record (-scan
// mode), throughputs are normalized by it first, so a slower CI machine
// does not read as a regression and a faster one does not mask it.
func runCompare(basePath, freshPath string, threshold float64, stdout io.Writer) error {
	baseTraj, err := readTrajectory(basePath)
	if err != nil {
		return err
	}
	freshTraj, err := readTrajectory(freshPath)
	if err != nil {
		return err
	}
	if len(baseTraj) == 0 || len(freshTraj) == 0 {
		return fmt.Errorf("empty trajectory (%s: %d points, %s: %d points)",
			basePath, len(baseTraj), freshPath, len(freshTraj))
	}
	base, fresh := baseTraj[len(baseTraj)-1], freshTraj[len(freshTraj)-1]

	memchrMBps := func(p benchPoint) float64 {
		for _, r := range p.Records {
			if r.Mode == "scan" && r.Input == "memchr" {
				return r.MBps
			}
		}
		return 0
	}
	baseRef, freshRef := memchrMBps(base), memchrMBps(fresh)
	normalized := baseRef > 0 && freshRef > 0

	freshByKey := make(map[string]benchRecord, len(fresh.Records))
	for _, r := range fresh.Records {
		freshByKey[r.key()] = r
	}

	t := stats.NewTable(
		fmt.Sprintf("Throughput: %s (%s) vs %s (%s), threshold %.0f%%",
			base.Rev, base.Date, fresh.Rev, fresh.Date, threshold),
		"Configuration", "Base MiB/s", "Fresh MiB/s", "Delta", "Verdict")
	var regressions []string
	compared := 0
	for _, b := range base.Records {
		if normalized && b.Mode == "scan" && b.Input == "memchr" {
			continue // the yardstick itself: machine speed, not code speed
		}
		f, ok := freshByKey[b.key()]
		if !ok {
			continue // the fresh run did not measure this configuration
		}
		bv, fv := b.MBps, f.MBps
		if normalized {
			bv /= baseRef
			fv /= freshRef
		}
		if bv <= 0 {
			continue
		}
		compared++
		delta := 100 * (fv - bv) / bv
		verdict := "ok"
		if delta < -threshold {
			verdict = "REGRESSION"
			regressions = append(regressions, fmt.Sprintf("%s: %+.1f%%", b.key(), delta))
		}
		t.AddRow(
			b.key(),
			stats.FormatFloat(b.MBps),
			stats.FormatFloat(f.MBps),
			fmt.Sprintf("%+.1f%%", delta),
			verdict,
		)
	}
	if normalized {
		t.AddNote("deltas normalized by each point's memchr bandwidth reference (base %.0f, fresh %.0f MiB/s) to cancel machine-speed differences", baseRef, freshRef)
	} else {
		t.AddNote("%s", "raw MiB/s comparison — no memchr reference record in one of the points")
	}
	fmt.Fprint(stdout, t.String())
	if compared == 0 {
		return fmt.Errorf("no comparable configurations between %s and %s", basePath, freshPath)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("throughput regressions beyond %.0f%%: %s", threshold, strings.Join(regressions, "; "))
	}
	return nil
}

// datasetFor resolves a benchmark query to its dataset: DTD source,
// document generator and configured document size (with the 4 MiB default).
// MEDLINE query IDs carry the "M" prefix; everything else is XMark.
func datasetFor(q xmlgen.Query, cfg experiments.Config) (dtdSource string, gen func(xmlgen.Config) []byte, docSize int64) {
	dtdSource, gen, docSize = xmlgen.XMarkDTD(), xmlgen.XMarkBytes, cfg.XMarkSize
	if strings.HasPrefix(q.ID, "M") {
		dtdSource, gen, docSize = xmlgen.MedlineDTD(), xmlgen.MedlineBytes, cfg.MedlineSize
	}
	if docSize <= 0 {
		docSize = 4 << 20
	}
	return dtdSource, gen, docSize
}

// parseSize parses sizes like "64MiB", "500KB", "2GiB" or plain byte counts.
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	units := []struct {
		suffix string
		factor int64
	}{
		{"GiB", 1 << 30}, {"GB", 1 << 30}, {"G", 1 << 30},
		{"MiB", 1 << 20}, {"MB", 1 << 20}, {"M", 1 << 20},
		{"KiB", 1 << 10}, {"KB", 1 << 10}, {"K", 1 << 10},
		{"B", 1},
	}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(s, u.suffix)), 64)
			if err != nil {
				return 0, fmt.Errorf("invalid size %q", s)
			}
			return int64(v * float64(u.factor)), nil
		}
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	return v, nil
}
