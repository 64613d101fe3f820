package corpus_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"smp/internal/compile"
	"smp/internal/core"
	"smp/internal/corpus"
	"smp/internal/dtd"
	"smp/internal/paths"
	"smp/internal/pipeline"
	"smp/internal/xmlgen"
)

// testPlan compiles the XM13-style query over the XMark-like DTD.
func testPlan(t testing.TB) *core.Plan {
	t.Helper()
	schema := dtd.MustParse(xmlgen.XMarkDTD())
	q, ok := xmlgen.QueryByID("XM13")
	if !ok {
		t.Fatal("query XM13 not found")
	}
	table, err := compile.Compile(schema, paths.MustParseSet(q.Paths), compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return core.NewPlan(table, core.Options{})
}

// testEngine is the single-query pipeline engine over testPlan.
func testEngine(t testing.TB) corpus.Engine {
	return pipelineEngine{eng: pipeline.New([]*core.Plan{testPlan(t)})}
}

// oracle projects doc with the paper's window engine, the reference every
// pipeline run must match byte for byte.
func oracle(t testing.TB, plan *core.Plan, doc []byte) []byte {
	t.Helper()
	out, _, err := core.NewFromPlan(plan).ProjectBytes(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// testDocs generates n distinct small XMark-like documents.
func testDocs(n int, size int64) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = xmlgen.XMarkBytes(xmlgen.Config{TargetSize: size, Seed: uint64(i + 1)})
	}
	return docs
}

// captureWriter is an in-memory WriteCloser destination.
type captureWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *captureWriter) Close() error { return nil }

func (c *captureWriter) Bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Bytes()
}

// TestRunnerMatchesSerial checks that sharding a batch across workers
// produces projections byte-identical to the serial reference engine, with
// and without intra-document workers inside each job.
func TestRunnerMatchesSerial(t *testing.T) {
	plan := testPlan(t)
	eng := pipeline.New([]*core.Plan{plan})
	docs := testDocs(12, 64<<10)

	want := make([][]byte, len(docs))
	for i, doc := range docs {
		want[i] = oracle(t, plan, doc)
	}

	configs := []struct {
		name   string
		runner corpus.Runner
	}{
		{"SharedEngine", corpus.Runner{Engine: pipelineEngine{eng: eng}, Workers: 4}},
		// 4 KiB chunks cut each 64 KiB document into several segments, so
		// the two scan workers really fan out.
		{"IntraWorkers", corpus.Runner{Engine: pipelineEngine{eng: eng, opts: pipeline.Options{Workers: 2, ChunkSize: 4 << 10}}, Workers: 2}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			outs := make([]*captureWriter, len(docs))
			jobs := make([]corpus.Job, len(docs))
			for i, doc := range docs {
				outs[i] = &captureWriter{}
				job := corpus.FromBytes("doc"+strconv.Itoa(i), doc)
				out := outs[i]
				job.Dst = func() (io.WriteCloser, error) { return out, nil }
				jobs[i] = job
			}
			results, agg := cfg.runner.Run(context.Background(), jobs)
			if agg.Failed != 0 {
				t.Fatalf("agg.Failed = %d, want 0 (results: %+v)", agg.Failed, results)
			}
			if agg.Documents != len(docs) {
				t.Fatalf("agg.Documents = %d, want %d", agg.Documents, len(docs))
			}
			var wantRead, wantWritten int64
			for i := range docs {
				if results[i].Name != "doc"+strconv.Itoa(i) {
					t.Fatalf("results[%d].Name = %q: results out of job order", i, results[i].Name)
				}
				if !bytes.Equal(outs[i].Bytes(), want[i]) {
					t.Errorf("doc %d: parallel projection differs from serial (%d vs %d bytes)",
						i, len(outs[i].Bytes()), len(want[i]))
				}
				wantRead += int64(len(docs[i]))
				wantWritten += int64(len(want[i]))
			}
			if agg.BytesRead != wantRead {
				t.Errorf("agg.BytesRead = %d, want %d", agg.BytesRead, wantRead)
			}
			if agg.BytesWritten != wantWritten {
				t.Errorf("agg.BytesWritten = %d, want %d", agg.BytesWritten, wantWritten)
			}
		})
	}
}

// TestRunnerJobErrorDoesNotStopBatch checks that a failing job is recorded
// in its Result while the rest of the batch completes.
func TestRunnerJobErrorDoesNotStopBatch(t *testing.T) {
	engine := testEngine(t)
	docs := testDocs(4, 16<<10)

	boom := errors.New("boom")
	jobs := []corpus.Job{
		corpus.FromBytes("ok0", docs[0]),
		{Name: "bad", Src: func() (io.ReadCloser, error) { return nil, boom }},
		corpus.FromBytes("ok1", docs[1]),
		corpus.FromBytes("ok2", docs[2]),
		corpus.FromBytes("ok3", docs[3]),
	}
	results, agg := (&corpus.Runner{Engine: engine, Workers: 2}).Run(context.Background(), jobs)
	if agg.Failed != 1 {
		t.Fatalf("agg.Failed = %d, want 1", agg.Failed)
	}
	if !errors.Is(results[1].Err, boom) {
		t.Fatalf("results[1].Err = %v, want %v", results[1].Err, boom)
	}
	for _, i := range []int{0, 2, 3, 4} {
		if results[i].Err != nil {
			t.Errorf("results[%d].Err = %v, want nil", i, results[i].Err)
		}
	}
}

// TestRunnerContextCancelled checks that a pre-cancelled context fails every
// job with the context error instead of running it.
func TestRunnerContextCancelled(t *testing.T) {
	engine := testEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	jobs := make([]corpus.Job, 8)
	for i := range jobs {
		jobs[i] = corpus.FromBytes("doc"+strconv.Itoa(i), []byte("<site/>"))
	}
	results, agg := (&corpus.Runner{Engine: engine, Workers: 3}).Run(ctx, jobs)
	if agg.Failed != len(jobs) {
		t.Fatalf("agg.Failed = %d, want %d", agg.Failed, len(jobs))
	}
	for i, res := range results {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("results[%d].Err = %v, want context.Canceled", i, res.Err)
		}
	}
}

// TestFromFile round-trips a document through the file-based job
// constructor and checks the projection written to disk against the serial
// reference engine.
func TestFromFile(t *testing.T) {
	plan := testPlan(t)
	engine := pipelineEngine{eng: pipeline.New([]*core.Plan{plan})}
	doc := testDocs(1, 32<<10)[0]
	dir := t.TempDir()
	in := filepath.Join(dir, "in.xml")
	out := filepath.Join(dir, "out.xml")
	if err := os.WriteFile(in, doc, 0o644); err != nil {
		t.Fatal(err)
	}

	results, agg := (&corpus.Runner{Engine: engine, Workers: 1}).Run(context.Background(), []corpus.Job{corpus.FromFile(in, out)})
	if agg.Failed != 0 {
		t.Fatalf("run failed: %v", results[0].Err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle(t, plan, doc); !bytes.Equal(got, want) {
		t.Fatalf("file projection (%d bytes) differs from serial projection (%d bytes)", len(got), len(want))
	}
}

// TestReport smoke-tests the table rendering.
func TestReport(t *testing.T) {
	engine := testEngine(t)
	jobs := []corpus.Job{corpus.FromBytes("a", testDocs(1, 8<<10)[0])}
	results, agg := (&corpus.Runner{Engine: engine, Workers: 1}).Run(context.Background(), jobs)
	got := corpus.Report("corpus", results, agg).String()
	for _, want := range []string{"corpus", "Document", "a", "ok", "1 document(s), 0 failed"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}

// cancellingSource produces an endless keyword-free stream and cancels the
// batch context after cancelAt bytes; only context cancellation can end the
// run, so the test proves in-flight jobs abort at a segment boundary.
type cancellingSource struct {
	produced int
	cancelAt int
	cancel   context.CancelFunc
	mu       *sync.Mutex
}

func (r *cancellingSource) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	r.produced += len(p)
	if r.produced >= r.cancelAt {
		r.mu.Lock()
		if r.cancel != nil {
			r.cancel()
			r.cancel = nil
		}
		r.mu.Unlock()
	}
	return len(p), nil
}

func (r *cancellingSource) Close() error { return nil }

// TestRunnerCancelsInFlightJobs checks that cancelling the batch context
// aborts jobs that are already running, not only unstarted ones.
func TestRunnerCancelsInFlightJobs(t *testing.T) {
	engine := testEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mu sync.Mutex
	jobs := make([]corpus.Job, 3)
	for i := range jobs {
		src := &cancellingSource{cancelAt: 256 << 10, cancel: cancel, mu: &mu}
		jobs[i] = corpus.Job{
			Name: "endless" + strconv.Itoa(i),
			Src:  func() (io.ReadCloser, error) { return src, nil },
		}
	}
	results, agg := (&corpus.Runner{Engine: engine, Workers: 3}).Run(ctx, jobs)
	if agg.Failed != len(jobs) {
		t.Fatalf("agg.Failed = %d, want %d", agg.Failed, len(jobs))
	}
	for i, res := range results {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("results[%d].Err = %v, want context.Canceled", i, res.Err)
		}
	}
}
