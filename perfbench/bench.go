package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// bench is the state of one run: configuration, reported metrics, counts
// of attempted and failed operations, and the span recorder of traced runs.
type bench struct {
	cfg       config
	work      string
	nproc     int
	metrics   map[string]metric
	badMetric error // the first metric that was not a finite number

	attempted, failed int64

	t0        time.Time
	recording bool // spans are recorded only in the traced main loop
	opName    string
	workers   int // callers of the main loop, for the busy ratio

	mu     sync.Mutex
	spans  []span
	writes int           // write spans recorded
	folded time.Duration // write time folded into parents past maxWriteSpans

	untraced, traced loopStat
}

// loopStat summarises one measured loop.
type loopStat struct {
	wall  time.Duration // wall time of the loop
	busy  time.Duration // summed operation time
	ops   int64
	bytes int64 // document bytes, counted once per operation
}

func (l loopStat) mibps() float64 { return mib(l.bytes) / l.busy.Seconds() }

// span is one call into a layer, timed from outside.
type span struct {
	id, parent  int
	layer, name string
	op          int64
	tid         int
	start, end  time.Duration // since bench.t0
	folded      time.Duration // child write time not recorded as spans
}

// maxWriteSpans caps the write spans kept in memory (a projection makes
// thousands of writes); later writes are folded into their parent span's
// accounting instead. Layer calls are always recorded.
const maxWriteSpans = 200_000

func newBench(cfg config, work string) *bench {
	return &bench{
		cfg:     cfg,
		work:    work,
		nproc:   runtime.NumCPU(),
		metrics: map[string]metric{},
		t0:      time.Now(),
	}
}

// set reports one metric. A value that is not a finite number (an empty
// base) is recorded as an error that ends the run.
func (b *bench) set(name string, v float64, unit string) {
	if (math.IsNaN(v) || math.IsInf(v, 0)) && b.badMetric == nil {
		b.badMetric = fmt.Errorf("metric %s is %v", name, v)
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// inject applies the self-test delay of a layer.
func (b *bench) inject(layer string) {
	if b.cfg.injectSleep > 0 && layer == b.cfg.injectLayer {
		time.Sleep(b.cfg.injectSleep)
	}
}

// call makes one call into layer through fn, timing it from outside. When
// the main loop is traced it records a span, whose id fn receives so that
// nested calls (writes, index loads) can name it as their parent; -1
// otherwise.
func (b *bench) call(layer, name string, parent int, op int64, tid int, fn func(id int)) time.Duration {
	t0 := time.Now()
	b.inject(layer)
	id := -1
	if b.recording {
		id = b.open(layer, name, parent, op, tid, t0)
	}
	fn(id)
	t1 := time.Now()
	if id >= 0 {
		b.close(id, t1)
	}
	return t1.Sub(t0)
}

func (b *bench) open(layer, name string, parent int, op int64, tid int, start time.Time) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := len(b.spans)
	b.spans = append(b.spans, span{id: id, parent: parent, layer: layer, name: name, op: op, tid: tid, start: start.Sub(b.t0), end: -1})
	return id
}

func (b *bench) close(id int, end time.Time) {
	b.mu.Lock()
	b.spans[id].end = end.Sub(b.t0)
	b.mu.Unlock()
}

// recordWrite records one dst.Write as a span on its parent's track, or
// folds its time into the parent once the span cap is reached.
func (b *bench) recordWrite(parent int, start, end time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.writes < maxWriteSpans {
		b.writes++
		b.spans = append(b.spans, span{id: len(b.spans), parent: parent, layer: "write", name: "Write", tid: b.spans[parent].tid, start: start.Sub(b.t0), end: end.Sub(b.t0)})
		return
	}
	d := end.Sub(start)
	b.spans[parent].folded += d
	b.folded += d
}

// sink is the benchmark's dst: it keeps the projected bytes so that they
// can be hashed and compared once the call has returned. In traced loops
// every Write is a span of the write layer.
type sink struct {
	b      *bench
	buf    []byte
	parent int
	onDone func(closed time.Time)
}

func (s *sink) Write(p []byte) (int, error) {
	if s.b.recording && s.parent >= 0 {
		t0 := time.Now()
		s.b.inject("write")
		s.buf = append(s.buf, p...)
		s.b.recordWrite(s.parent, t0, time.Now())
		return len(p), nil
	}
	s.b.inject("write")
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// Close records when the destination was closed (the end of a Batch job).
func (s *sink) Close() error {
	if s.onDone != nil {
		s.onDone(time.Now())
	}
	return nil
}

func (s *sink) reset(parent int) {
	s.buf = s.buf[:0]
	s.parent = parent
}

type digest [32]byte

func digestOf(p []byte) digest { return sha256.Sum256(p) }

// ledger computes each layer's self time over the recorded spans: a span's
// duration minus the part of it its children cover.
func (b *bench) ledger() (self map[string]time.Duration, roots, busy time.Duration) {
	self = map[string]time.Duration{}
	children := map[int][]int{}
	for _, s := range b.spans {
		if s.end < 0 {
			continue
		}
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s.id)
		} else {
			roots += s.end - s.start
		}
		if b.opName != "" && strings.HasPrefix(s.name, b.opName) {
			busy += s.end - s.start
		}
	}
	for _, s := range b.spans {
		if s.end < 0 {
			continue
		}
		covered := s.folded + unionWithin(b.spans, children[s.id], s.start, s.end)
		self[s.layer] += s.end - s.start - covered
	}
	self["write"] += b.folded
	return self, roots, busy
}

// unionWithin returns the length of the union of the child intervals,
// clipped to [lo, hi].
func unionWithin(spans []span, ids []int, lo, hi time.Duration) time.Duration {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(ids))
	for _, id := range ids {
		c := spans[id]
		if c.end < 0 {
			continue
		}
		s, e := max(c.start, lo), min(c.end, hi)
		if e > s {
			iv = append(iv, [2]time.Duration{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE time.Duration
	curE = -1
	for _, x := range iv {
		if x[0] > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// reportLedger sets the trace metrics: each layer's share of the summed
// self time, the busy ratio of the main loop's callers, the part of the
// traced loop that no span covers, and the tracing overhead.
//
// Each ratio compares like with like. The residual sets the root spans,
// which follow one another on the loop's one caller, against the loop's
// wall time. The busy ratio and the write share set operation spans, which
// overlap on multi-worker workloads, against worker time: the summed
// operation spans, or the wall time times the number of workers.
func (b *bench) reportLedger() {
	self, roots, busy := b.ledger()
	var total time.Duration
	for _, d := range self {
		total += d
	}
	for _, l := range layers {
		b.set(l+".self_share", self[l].Seconds()/total.Seconds(), "ratio")
	}
	w := float64(max(b.workers, 1))
	b.set("ledger.worker_busy_ratio", busy.Seconds()/(w*b.traced.wall.Seconds()), "ratio")
	residual := b.traced.wall - roots
	b.set("ledger.residual_share", residual.Seconds()/b.traced.wall.Seconds(), "ratio")
	b.set("ledger.op_overhead_us", us(residual)/float64(b.traced.ops), "us")
	b.set("trace.overhead_ratio", b.untraced.mibps()/b.traced.mibps(), "ratio")
	writeTime := b.folded
	for _, s := range b.spans {
		if s.layer == "write" && s.end >= 0 {
			writeTime += s.end - s.start
		}
	}
	b.set("write.ms_share", writeTime.Seconds()/busy.Seconds(), "ratio")
}

// printLedger prints the per-layer self-time table of the traced loop.
func (b *bench) printLedger(w io.Writer) {
	self, _, _ := b.ledger()
	var total time.Duration
	for _, d := range self {
		total += d
	}
	fmt.Fprintf(w, "# per-layer self time, workload %s, %d spans\n", b.cfg.workload, len(b.spans))
	fmt.Fprintf(w, "# %-10s %12s %8s\n", "layer", "self_ms", "share")
	for _, l := range layers {
		fmt.Fprintf(w, "# %-10s %12.2f %8.4f\n", l, float64(self[l])/1e6, self[l].Seconds()/total.Seconds())
	}
}

// writeTrace writes the spans as Chrome-trace JSON, once, at exit.
func (b *bench) writeTrace(prov map[string]any) error {
	path := filepath.Join(filepath.Dir(b.work), fmt.Sprintf("trace-%s-%d.json", b.cfg.workload, b.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range b.spans {
		if s.end < 0 {
			continue
		}
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, `{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op":%d}}`,
			s.name, s.layer, s.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, s.op)
	}
	fmt.Fprintf(w, `],"otherData":`)
	enc, _ := json.Marshal(prov)
	w.Write(enc)
	w.WriteString("}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// percentile returns the q-quantile (0..1) of ds by linear interpolation.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(i)
	return s[i] + time.Duration(f*float64(s[i+1]-s[i]))
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
func mib(n int64) float64        { return float64(n) / (1 << 20) }

// rssSampler tracks the peak resident set of a process by polling
// /proc/<pid>/statm, so that the peak of a window can be taken above a
// baseline.
type rssSampler struct {
	peak atomic.Int64
	stop chan struct{}
	done chan struct{}
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.peak.Store(rssBytes())
	go func() {
		defer close(s.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if r := rssBytes(); r > s.peak.Load() {
					s.peak.Store(r)
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak in bytes.
func (s *rssSampler) finish() int64 {
	close(s.stop)
	<-s.done
	if r := rssBytes(); r > s.peak.Load() {
		s.peak.Store(r)
	}
	return s.peak.Load()
}

func rssBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// settle collects garbage and returns memory to the system, so that a
// baseline reading is not inflated by set-up garbage.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// procStatusKiB reads one kB field (VmHWM, VmRSS) of /proc/<pid>/status.
func procStatusKiB(pid int, field string) int64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// treeDigest hashes the Go sources and module files under root, so that a
// result names the tree it measured even where the checkout is not a git
// repository.
func treeDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "BENCHMARK.json" || strings.HasSuffix(path, ".sh") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// gitState records HEAD, a dirty flag and, for a dirty tree, the hash of
// `git stash create`. Git is confined to the current directory, which may
// not be a repository at all.
func gitState() map[string]any {
	out := map[string]any{}
	cwd, err := os.Getwd()
	if err != nil {
		return out
	}
	gitRun := func(args ...string) (string, bool) {
		cmd := exec.Command("git", args...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		if cmd.Run() != nil {
			return "", false
		}
		return strings.TrimSpace(stdout.String()), true
	}
	head, ok := gitRun("rev-parse", "HEAD")
	if !ok {
		out["git_head"] = "none"
		return out
	}
	out["git_head"] = head
	status, _ := gitRun("status", "--porcelain", "--untracked-files=no")
	out["git_dirty"] = status != ""
	if status != "" {
		if stash, ok := gitRun("stash", "create"); ok {
			out["git_stash"] = stash
		}
	}
	return out
}
