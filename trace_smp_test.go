package smp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestWithTrace verifies the WithTrace contract end to end on a real
// projection: the traced output stays byte-identical to the untraced run,
// the per-stage duration fields on Stats come back non-zero, and the
// emitted trace is a well-formed Chrome trace-event array containing the
// compile span and the worker's scan and replay task spans.
func TestWithTrace(t *testing.T) {
	pf, err := Compile(testDTD, "/*, //australia//description#", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A document large enough for several segment rounds at a 1 KiB chunk.
	doc := append([]byte("<site><regions><africa/><asia/><australia>"), bytes.Repeat([]byte("<item><location>x</location><name>n</name><payment>p</payment><description>d</description><shipping/><incategory category=\"1\"/></item>"), 200)...)
	doc = append(doc, []byte("</australia></regions></site>")...)

	want, _ := projectBytes(t, pf, doc)

	var traced bytes.Buffer
	var traceJSON bytes.Buffer
	stats, err := pf.Project(context.Background(), &traced, bytes.NewReader(doc),
		WithTrace(&traceJSON), WithChunkSize(1024))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traced.Bytes(), want) {
		t.Errorf("traced output differs from untraced (%d vs %d bytes)", traced.Len(), len(want))
	}
	if stats.ScanDuration <= 0 {
		t.Errorf("ScanDuration = %v, want > 0", stats.ScanDuration)
	}
	if stats.ReplayDuration <= 0 {
		t.Errorf("ReplayDuration = %v, want > 0", stats.ReplayDuration)
	}
	if stats.StitchDuration <= 0 {
		t.Errorf("StitchDuration = %v, want > 0", stats.StitchDuration)
	}

	var events []map[string]any
	if err := json.Unmarshal(traceJSON.Bytes(), &events); err != nil {
		t.Fatalf("trace output is not a JSON array: %v", err)
	}
	names := make(map[string]bool)
	for _, ev := range events {
		if name, ok := ev["name"].(string); ok {
			names[name] = true
		}
	}
	for _, want := range []string{"compile", "scan", "replay q0", "process_name", "thread_name"} {
		if !names[want] {
			t.Errorf("trace is missing %q events (have %v)", want, keys(names))
		}
	}
}

// TestWithTraceMulti checks trace wiring through MultiProject: per-query
// compile spans and byte-identical per-query outputs.
func TestWithTraceMulti(t *testing.T) {
	pf1, err := Compile(testDTD, "/*, //australia//description#", Options{})
	if err != nil {
		t.Fatal(err)
	}
	pf2, err := Compile(testDTD, "/*, //africa//name#", Options{})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := NewMultiPrefilter(pf1, pf2)
	if err != nil {
		t.Fatal(err)
	}
	want1, _ := projectBytes(t, pf1, []byte(testDoc))
	want2, _ := projectBytes(t, pf2, []byte(testDoc))

	var out1, out2, traceJSON bytes.Buffer
	_, err = mp.MultiProject(context.Background(), []io.Writer{&out1, &out2}, strings.NewReader(testDoc), WithTrace(&traceJSON))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1.Bytes(), want1) || !bytes.Equal(out2.Bytes(), want2) {
		t.Error("traced multi-query outputs differ from standalone runs")
	}
	var events []map[string]any
	if err := json.Unmarshal(traceJSON.Bytes(), &events); err != nil {
		t.Fatalf("trace output is not a JSON array: %v", err)
	}
	names := make(map[string]bool)
	for _, ev := range events {
		if name, ok := ev["name"].(string); ok {
			names[name] = true
		}
	}
	if !names["compile q0"] || !names["compile q1"] {
		t.Errorf("per-query compile spans missing (have %v)", keys(names))
	}
}

// TestUntracedRunReportsStages checks that stage timing does not depend on
// a trace: a default Project reports its scan and replay time, and so does
// every W > 1 run (summed over the pool's workers), buffered or streamed.
func TestUntracedRunReportsStages(t *testing.T) {
	pf, err := Compile(testDTD, "/*, //australia//description#", Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, stats := projectBytes(t, pf, []byte(testDoc))
	if stats.ScanDuration <= 0 {
		t.Errorf("ScanDuration = %v, want > 0", stats.ScanDuration)
	}
	if stats.ReplayDuration <= 0 {
		t.Errorf("ReplayDuration = %v, want > 0", stats.ReplayDuration)
	}

	m, doc := multiFixture(t, XMark, 4, 256<<10)
	path := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for input, src := range map[string]io.Reader{"file": f, "stream": bytes.NewReader(doc)} {
		var st Stats
		if _, err := m.MultiProject(context.Background(), nil, src, WithWorkers(2), WithChunkSize(4<<10), WithStatsInto(&st)); err != nil {
			t.Fatal(err)
		}
		if st.ScanDuration <= 0 || st.ReplayDuration <= 0 {
			t.Errorf("W=2 %s: ScanDuration %v, ReplayDuration %v, want both > 0", input, st.ScanDuration, st.ReplayDuration)
		}
	}
}

// TestTracedRunMatchesOnBadInput checks that a trace observes the run it
// would have been without one: on truncated and byte-flipped XMark
// documents, a traced run writes the same bytes before the error and
// returns the same error as the default run.
func TestTracedRunMatchesOnBadInput(t *testing.T) {
	dtdSource, err := DatasetDTD(XMark)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := GenerateBytes(XMark, 32<<10, 7)
	if err != nil {
		t.Fatal(err)
	}
	var bad [][]byte
	for i := 1; i < 40; i++ {
		n := len(doc) * i / 40
		bad = append(bad, doc[:n])
		flipped := append([]byte(nil), doc...)
		flipped[n] ^= 0x20
		bad = append(bad, flipped)
	}
	failed := 0
	// The queries whose copy regions most often straddle a truncation.
	for _, id := range []string{"XM10", "XM13", "XM14"} {
		q, ok := QueryByID(id)
		if !ok {
			t.Fatalf("query %s not found", id)
		}
		pf, err := Compile(dtdSource, q.Paths, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range bad {
			var plain, traced bytes.Buffer
			_, plainErr := pf.Project(context.Background(), &plain, bytes.NewReader(in), WithChunkSize(4<<10))
			_, tracedErr := pf.Project(context.Background(), &traced, bytes.NewReader(in), WithChunkSize(4<<10), WithTrace(io.Discard))
			if plainErr != nil {
				failed++
			}
			if fmt.Sprint(plainErr) != fmt.Sprint(tracedErr) {
				t.Errorf("%s input %d: default err %v, traced err %v", id, i, plainErr, tracedErr)
			}
			if !bytes.Equal(plain.Bytes(), traced.Bytes()) {
				t.Errorf("%s input %d: traced run wrote %d bytes, default run %d", id, i, traced.Len(), plain.Len())
			}
		}
	}
	if failed == 0 {
		t.Fatal("no damaged input failed: the test exercises no error path")
	}

	// A traced K=18 run on a worker pool is the untraced pool run too, on
	// the good document and on every damaged one.
	union, _ := multiFixture(t, XMark, 18, 1)
	multi := func(in []byte, opts ...ProjectOption) ([]bytes.Buffer, Stats, error) {
		bufs := make([]bytes.Buffer, union.Len())
		dsts := make([]io.Writer, union.Len())
		for i := range dsts {
			dsts[i] = &bufs[i]
		}
		var st Stats
		_, err := union.MultiProject(context.Background(), dsts, bytes.NewReader(in),
			append(opts, WithWorkers(2), WithChunkSize(4<<10), WithStatsInto(&st))...)
		return bufs, st, err
	}
	for i, in := range append([][]byte{doc}, bad...) {
		plain, _, plainErr := multi(in)
		var trace bytes.Buffer
		traced, st, tracedErr := multi(in, WithTrace(&trace))
		if fmt.Sprint(plainErr) != fmt.Sprint(tracedErr) {
			t.Errorf("K=18 W=2 input %d: default err %v, traced err %v", i, plainErr, tracedErr)
		}
		for q := range plain {
			if !bytes.Equal(plain[q].Bytes(), traced[q].Bytes()) {
				t.Errorf("K=18 W=2 input %d query %d: traced run wrote %d bytes, default run %d", i, q, traced[q].Len(), plain[q].Len())
			}
		}
		if i == 0 {
			if plainErr != nil {
				t.Fatalf("K=18 W=2 on the undamaged document: %v", plainErr)
			}
			if st.ScanDuration <= 0 || st.ReplayDuration <= 0 || st.StitchDuration <= 0 {
				t.Errorf("traced K=18 W=2 run: scan %v, replay %v, stitch %v, want all > 0", st.ScanDuration, st.ReplayDuration, st.StitchDuration)
			}
			if !strings.Contains(trace.String(), `"replay q17"`) || !strings.Contains(trace.String(), `"worker 1"`) {
				t.Errorf("traced K=18 W=2 run records no per-worker replay spans")
			}
		}
	}
}

// sleepWriter discards its input, sleeping in its first n writes and
// adding the measured sleep time to slept.
type sleepWriter struct {
	n     atomic.Int32
	slept *atomic.Int64
}

func (w *sleepWriter) Write(p []byte) (int, error) {
	if w.n.Add(-1) >= 0 {
		t0 := time.Now()
		time.Sleep(time.Millisecond)
		w.slept.Add(int64(time.Since(t0)))
	}
	return len(p), nil
}

// TestTracedStitchCountsSlowWrites checks the stage split of a traced run
// whose destinations are slow: the time inside their writes is stitch time,
// counted once, so StitchDuration covers every sleep and ReplayDuration
// keeps the replay's own share, on one worker and on two.
func TestTracedStitchCountsSlowWrites(t *testing.T) {
	m, doc := multiFixture(t, XMark, 4, 256<<10)
	for _, workers := range []int{1, 2} {
		var slept atomic.Int64
		dsts := make([]io.Writer, m.Len())
		for i := range dsts {
			w := &sleepWriter{slept: &slept}
			w.n.Store(5)
			dsts[i] = w
		}
		var st Stats
		if _, err := m.MultiProject(context.Background(), dsts, bytes.NewReader(doc), WithWorkers(workers),
			WithChunkSize(4<<10), WithTrace(io.Discard), WithStatsInto(&st)); err != nil {
			t.Fatal(err)
		}
		if st.ReplayDuration <= 0 {
			t.Errorf("W=%d: ReplayDuration = %v, want > 0", workers, st.ReplayDuration)
		}
		if sleeps := time.Duration(slept.Load()); st.StitchDuration < sleeps {
			t.Errorf("W=%d: StitchDuration = %v, want >= the %v the writes slept", workers, st.StitchDuration, sleeps)
		}
	}
}

// TestBadInputAgreesAcrossPaths pins the bad-input contract across the
// execution paths a caller can pick: on truncated, byte-flipped and spliced
// XMark documents, the serial run, a W=2 run, a replay of the query's own
// sidecar and a replay of a K=18 superset sidecar write the same bytes
// before the error — the projection of the input before the failing tag —
// and return the same error.
func TestBadInputAgreesAcrossPaths(t *testing.T) {
	dtdSource, err := DatasetDTD(XMark)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := GenerateBytes(XMark, 32<<10, 11)
	if err != nil {
		t.Fatal(err)
	}
	var bad [][]byte
	for i := 1; i < 20; i++ {
		n := len(doc) * i / 20
		bad = append(bad, doc[:n])
		flipped := append([]byte(nil), doc...)
		flipped[n] ^= 0x20
		bad = append(bad, flipped)
		m := len(doc) * (20 - i) / 21
		spliced := append(append(append([]byte(nil), doc[:n]...), doc[m:m+200]...), doc[n:]...)
		bad = append(bad, spliced)
	}
	queries, err := BenchmarkQueries(XMark)
	if err != nil {
		t.Fatal(err)
	}
	var pfs []*Prefilter
	for _, q := range queries {
		pf, err := Compile(dtdSource, q.Paths, Options{})
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		pfs = append(pfs, pf)
	}
	union, err := NewMultiPrefilter(pfs...)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		out   []byte
		err   error
		stats Stats
	}
	project := func(pf *Prefilter, in []byte, opts ...ProjectOption) run {
		var buf bytes.Buffer
		stats, err := pf.Project(context.Background(), &buf, bytes.NewReader(in), append(opts, WithChunkSize(4<<10))...)
		return run{buf.Bytes(), err, stats}
	}
	failed := 0
	for i, in := range bad {
		superIx := union.BuildIndex(in)
		for qi, pf := range pfs {
			serial := project(pf, in)
			if serial.err != nil {
				failed++
			}
			for _, other := range []struct {
				path    string
				run     run
				replays bool
			}{
				{"workers=2", project(pf, in, WithWorkers(2)), false},
				{"own sidecar", project(pf, in, WithIndex(pf.BuildIndex(in))), true},
				{"K=18 sidecar", project(pf, in, WithIndex(superIx)), true},
			} {
				if other.replays && other.run.stats.IndexHits != 1 {
					t.Fatalf("%s input %d %s: the run did not replay the sidecar", queries[qi].ID, i, other.path)
				}
				if fmt.Sprint(serial.err) != fmt.Sprint(other.run.err) {
					t.Errorf("%s input %d %s: serial err %v, got %v", queries[qi].ID, i, other.path, serial.err, other.run.err)
				}
				if !bytes.Equal(serial.out, other.run.out) {
					t.Errorf("%s input %d %s: wrote %d bytes, serial %d", queries[qi].ID, i, other.path, len(other.run.out), len(serial.out))
				}
			}
		}
	}
	if failed == 0 {
		t.Fatal("no damaged input failed: the test exercises no error path")
	}
	t.Logf("%d runs per path, %d failing", len(bad)*len(pfs), failed)
	badInputAgreesAcrossCuts(t, dtdSource)
	badInputAgreesAcrossWorkers(t, union)
}

// badInputAgreesAcrossCuts pins the bytes before an error inside an open
// copy region that spans several segments of every cut: the regions
// subtree of a 256 KiB XMark document, truncated by an unterminated
// </regions tag at offset 40118. One worker cuts 4 KiB segments, W=2 and
// W=3 cut 8 and 12 KiB backed off to a '<', and the sidecar replay cuts
// 4 KiB segments, yet all of them write the region up to the failing tag.
func badInputAgreesAcrossCuts(t *testing.T, dtdSource string) {
	doc, err := GenerateBytes(XMark, 256<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	const at = 40118
	in := append(append([]byte(nil), doc[:at]...), "</regions   "...)
	pf, err := Compile(dtdSource, "/site/regions#", Options{})
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		out []byte
		err error
	}
	project := func(opts ...ProjectOption) run {
		var buf bytes.Buffer
		_, err := pf.Project(context.Background(), &buf, bytes.NewReader(in), append(opts, WithChunkSize(4<<10))...)
		return run{buf.Bytes(), err}
	}
	serial := project()
	if serial.err == nil || !strings.Contains(serial.err.Error(), "inside tag at offset 40118") {
		t.Fatalf("truncated regions: err %v, want end of input inside the tag at offset %d", serial.err, at)
	}
	if start := bytes.Index(in, []byte("<regions")); !bytes.HasSuffix(serial.out, in[start:at]) {
		t.Errorf("truncated regions: wrote %d bytes, not the regions subtree up to the failing tag", len(serial.out))
	}
	for path, got := range map[string]run{
		"workers=2":   project(WithWorkers(2)),
		"workers=3":   project(WithWorkers(3)),
		"own sidecar": project(WithIndex(pf.BuildIndex(in))),
	} {
		if fmt.Sprint(got.err) != fmt.Sprint(serial.err) {
			t.Errorf("truncated regions %s: err %v, serial err %v", path, got.err, serial.err)
		}
		if !bytes.Equal(got.out, serial.out) {
			t.Errorf("truncated regions %s: wrote %d bytes, serial %d", path, len(got.out), len(serial.out))
		}
	}
}

// badInputAgreesAcrossWorkers extends the bad-input contract to K > 1 runs
// whose K replays are spread over a worker pool: on damaged 256 KiB XMark
// documents cut into many segments, the 18-query MultiProject at W=1 and
// at W=2 and W=3 — over a file (mapped, buffered) and over a bytes.Reader
// (streamed) — writes the same bytes before each query's error and returns
// the same error for each query.
func badInputAgreesAcrossWorkers(t *testing.T, union *MultiPrefilter) {
	doc, err := GenerateBytes(XMark, 256<<10, 13)
	if err != nil {
		t.Fatal(err)
	}
	var bad [][]byte
	for i := 1; i < 12; i++ {
		n := len(doc) * i / 12
		bad = append(bad, doc[:n])
		flipped := append([]byte(nil), doc...)
		flipped[n] ^= 0x20
		bad = append(bad, flipped)
		m := len(doc) * (12 - i) / 13
		bad = append(bad, append(append(append([]byte(nil), doc[:n]...), doc[m:m+300]...), doc[n:]...))
	}
	dir := t.TempDir()
	type run struct {
		outs [][]byte
		errs []error
	}
	project := func(src io.Reader, workers int) run {
		bufs := make([]bytes.Buffer, union.Len())
		dsts := make([]io.Writer, union.Len())
		for i := range dsts {
			dsts[i] = &bufs[i]
		}
		_, err := union.MultiProject(context.Background(), dsts, src, WithWorkers(workers), WithChunkSize(4<<10))
		r := run{errs: make([]error, union.Len())}
		var merr *MultiError
		if errors.As(err, &merr) {
			r.errs = merr.Errs
		} else if err != nil {
			t.Fatalf("run error %v is not a *MultiError", err)
		}
		for i := range bufs {
			r.outs = append(r.outs, bufs[i].Bytes())
		}
		return r
	}
	failed := 0
	for i, in := range bad {
		path := filepath.Join(dir, fmt.Sprintf("bad%d.xml", i))
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		serial := project(bytes.NewReader(in), 1)
		for _, err := range serial.errs {
			if err != nil {
				failed++
			}
		}
		for _, workers := range []int{2, 3} {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			runs := map[string]run{"file": project(f, workers), "stream": project(bytes.NewReader(in), workers)}
			f.Close()
			for input, got := range runs {
				for q := range serial.outs {
					if fmt.Sprint(serial.errs[q]) != fmt.Sprint(got.errs[q]) {
						t.Errorf("input %d %s W=%d query %d: W=1 err %v, got %v", i, input, workers, q, serial.errs[q], got.errs[q])
					}
					if !bytes.Equal(serial.outs[q], got.outs[q]) {
						t.Errorf("input %d %s W=%d query %d: wrote %d bytes, W=1 %d", i, input, workers, q, len(got.outs[q]), len(serial.outs[q]))
					}
				}
			}
		}
	}
	if failed == 0 {
		t.Fatal("no damaged input failed a query: the K=18 runs exercise no error path")
	}
	t.Logf("K=18: %d inputs, %d failing query runs per path", len(bad), failed)
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
