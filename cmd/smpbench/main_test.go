package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-experiment", "table2",
		"-medline", "200KiB",
		"-queries", "M1,M5",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"Table II", "M1", "M5", "Char Comp."} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "M2") {
		t.Error("query filter was not applied")
	}
}

func TestRunMarkdownAndCSV(t *testing.T) {
	for _, format := range []string{"markdown", "csv"} {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), []string{
			"-experiment", "table1",
			"-xmark", "150KiB",
			"-queries", "XM13",
			"-format", format,
		}, &stdout, &stderr)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		out := stdout.String()
		if format == "markdown" && !strings.Contains(out, "| Query |") {
			t.Errorf("markdown output malformed:\n%s", out)
		}
		if format == "csv" && !strings.Contains(out, "Query,") {
			t.Errorf("csv output malformed:\n%s", out)
		}
	}
}

func TestRunSweepAndBudgetFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-experiment", "fig7a",
		"-sweep", "32KiB,256KiB",
		"-budget", "512KiB",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "Fig. 7(a)") {
		t.Errorf("output:\n%s", stdout.String())
	}
}

func TestRunColdStart(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-coldstart",
		"-xmark", "150KiB",
		"-queries", "XM13",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"Cold start", "XM13", "Compile", "Plan Bytes", "First/Steady"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunColdStartUnknownQuery(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-coldstart", "-queries", "NOPE"}, &stdout, &stderr); err == nil {
		t.Error("expected error for unknown query")
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-experiment", "nonsense"},
		{"-xmark", "bogus"},
		{"-medline", "bogus"},
		{"-sweep", "1MiB,bogus"},
		{"-budget", "bogus"},
		{"-experiment", "table1", "-xmark", "100KiB", "-queries", "XM13", "-format", "yaml"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), args, &stdout, &stderr); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunIntraDoc(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-intra", "4",
		"-xmark", "400KiB",
		"-queries", "XM13",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"Intra-document parallel projection", "XM13", "Workers", "Speedup", "byte-identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMultiQuery(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-multi", "4",
		"-xmark", "400KiB",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"Multi-query shared projection", "4 queries", "independent passes", "1 shared scan", "Speedup", "byte-identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMultiQueryMixedDatasets(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-multi", "2",
		"-queries", "XM1,M1",
	}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "one dataset") {
		t.Fatalf("err = %v, want one-dataset error", err)
	}
}

func TestRunScanKernel(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "BENCH_test.json")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-scan",
		"-xmark", "400KiB",
		"-json", jsonPath,
		"-note", "unit test point",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"Scan kernel bandwidth", "scan (swar)", "scalar reference", "memchr", "% of memchr"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	trajectory, err := readTrajectory(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(trajectory) != 1 {
		t.Fatalf("trajectory has %d points, want 1", len(trajectory))
	}
	point := trajectory[0]
	if point.Date == "" || point.Rev == "" {
		t.Errorf("point missing rev/date: %+v", point)
	}
	if point.Note != "unit test point" {
		t.Errorf("note = %q", point.Note)
	}
	inputs := map[string]bool{}
	for _, r := range point.Records {
		if r.Mode != "scan" {
			t.Errorf("record mode = %q, want scan", r.Mode)
		}
		if r.MBps <= 0 {
			t.Errorf("record %s has non-positive throughput", r.key())
		}
		inputs[r.Input] = true
	}
	for _, want := range []string{"scan", "scalar", "memchr"} {
		if !inputs[want] {
			t.Errorf("trajectory point missing %q record (got %v)", want, inputs)
		}
	}

	// A second invocation appends a second point.
	if err := run(context.Background(), []string{
		"-scan", "-xmark", "400KiB", "-json", jsonPath,
	}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if trajectory, err = readTrajectory(jsonPath); err != nil || len(trajectory) != 2 {
		t.Fatalf("after second run: %d points (err %v), want 2", len(trajectory), err)
	}
}

func TestRunIndexMode(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "BENCH_test.json")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-index",
		"-xmark", "400KiB",
		"-medline", "400KiB",
		"-json", jsonPath,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"Persistent candidate index", "XM13", "M4", "Build (scans)", "Speedup", "byte-compared against the scan path"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	trajectory, err := readTrajectory(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(trajectory) != 1 {
		t.Fatalf("trajectory has %d points, want 1", len(trajectory))
	}
	// The point names the machine and toolchain it measured on.
	p := trajectory[0]
	if p.CPU == "" || p.GOMAXPROCS != runtime.GOMAXPROCS(0) || p.Go != runtime.Version() {
		t.Errorf("point provenance cpu=%q gomaxprocs=%d go=%q, want the running machine's", p.CPU, p.GOMAXPROCS, p.Go)
	}
	if p.Dirty == nil && p.Rev != "unknown" {
		t.Error("point inside a git checkout does not record whether the tree was dirty")
	}
	keys := map[string]bool{}
	for _, r := range trajectory[0].Records {
		if r.MBps <= 0 {
			t.Errorf("record %s has non-positive throughput", r.key())
		}
		keys[r.key()] = true
	}
	// The scan baseline and the indexed replay of one dataset must land
	// under distinct keys (-compare gates like against like only), and the
	// point must carry the memchr bandwidth reference -compare normalizes by.
	for _, want := range []string{
		"index-xmark k=1 w=1 input=scan",
		"index-xmark k=1 w=1 input=index",
		"index-build-xmark k=1 w=1 input=index",
		"index-medline k=1 w=1 input=scan",
		"index-medline k=1 w=1 input=index",
		"index-build-medline k=1 w=1 input=index",
		"scan k=1 w=1 input=memchr",
	} {
		if !keys[want] {
			t.Errorf("trajectory point missing record %q (got %v)", want, keys)
		}
	}
}

func TestRunIndexModeUnknownQuery(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-index", "-queries", "NOPE"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "unknown query") {
		t.Fatalf("err = %v, want unknown query", err)
	}
}

func TestRunColdStartInputColumn(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-coldstart",
		"-xmark", "150KiB",
		"-queries", "XM13",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "Input") {
		t.Errorf("cold-start table misses the Input column:\n%s", out)
	}
	if !strings.Contains(out, "stream") {
		t.Errorf("cold-start table misses the stream row:\n%s", out)
	}
	if runtime.GOOS == "linux" && !strings.Contains(out, "mmap") {
		t.Errorf("cold-start table misses the mmap row on linux:\n%s", out)
	}
}

func TestRunMultiQueryInputColumn(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-multi", "2",
		"-xmark", "400KiB",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "Input") {
		t.Errorf("multi-query table misses the Input column:\n%s", out)
	}
	if runtime.GOOS == "linux" && !strings.Contains(out, "mmap") {
		t.Errorf("multi-query table misses the mmap shared-scan row on linux:\n%s", out)
	}
}

func writeTrajectory(t *testing.T, path string, points []benchPoint) {
	t.Helper()
	data, err := json.Marshal(points)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	freshPath := filepath.Join(dir, "fresh.json")

	// The fresh machine is 2x slower across the board (memchr included):
	// normalization must cancel that out and pass.
	writeTrajectory(t, basePath, []benchPoint{{
		Rev: "aaa", Date: "2026-01-01",
		Records: []benchRecord{
			{Mode: "scan", K: 1, W: 1, Input: "scan", MBps: 1000},
			{Mode: "scan", K: 1, W: 1, Input: "memchr", MBps: 2000},
		},
	}})
	writeTrajectory(t, freshPath, []benchPoint{{
		Rev: "bbb", Date: "2026-01-02",
		Records: []benchRecord{
			{Mode: "scan", K: 1, W: 1, Input: "scan", MBps: 500},
			{Mode: "scan", K: 1, W: 1, Input: "memchr", MBps: 1000},
		},
	}})
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{
		"-compare", basePath, "-against", freshPath,
	}, &stdout, &stderr); err != nil {
		t.Fatalf("uniformly slower machine flagged as regression: %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "normalized") {
		t.Errorf("compare did not normalize by the memchr reference:\n%s", stdout.String())
	}

	// A genuine kernel regression (memchr steady, scan halved) must fail.
	writeTrajectory(t, freshPath, []benchPoint{{
		Rev: "ccc", Date: "2026-01-03",
		Records: []benchRecord{
			{Mode: "scan", K: 1, W: 1, Input: "scan", MBps: 500},
			{Mode: "scan", K: 1, W: 1, Input: "memchr", MBps: 2000},
		},
	}})
	stdout.Reset()
	err := run(context.Background(), []string{
		"-compare", basePath, "-against", freshPath, "-threshold", "15",
	}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("halved kernel throughput not flagged: err = %v\n%s", err, stdout.String())
	}

	// Missing -against is a usage error.
	if err := run(context.Background(), []string{"-compare", basePath}, &stdout, &stderr); err == nil {
		t.Error("compare without -against succeeded")
	}
}

// TestTrajectoryProvenanceFields checks that points without the machine
// fields (written before they existed) still load, and that the fields
// survive a round trip.
func TestTrajectoryProvenanceFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traj.json")
	legacy := `[{"rev":"aaa","date":"2026-01-01","records":[{"mode":"scan","k":1,"w":1,"input":"scan","mbps":1}]}]`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	traj, err := readTrajectory(path)
	if err != nil {
		t.Fatalf("legacy point: %v", err)
	}
	if p := traj[0]; p.Dirty != nil || p.Stash != "" || p.CPU != "" || p.GOMAXPROCS != 0 || p.Go != "" {
		t.Fatalf("legacy point gained provenance: %+v", p)
	}
	data, err := json.Marshal(traj[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"dirty", "stash", "cpu", "gomaxprocs", `"go"`} {
		if strings.Contains(string(data), key) {
			t.Errorf("legacy point re-encodes with %s: %s", key, data)
		}
	}

	clean, dirty := false, true
	writeTrajectory(t, path, []benchPoint{
		{Rev: "bbb", Dirty: &clean, CPU: "cpu", GOMAXPROCS: 3, Go: "go1.x"},
		{Rev: "ccc", Dirty: &dirty, Stash: "0123abcd"},
	})
	traj, err = readTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if p := traj[0]; p.Dirty == nil || *p.Dirty || p.Stash != "" || p.CPU != "cpu" || p.GOMAXPROCS != 3 || p.Go != "go1.x" {
		t.Fatalf("provenance did not round-trip: %+v", p)
	}
	if p := traj[1]; p.Dirty == nil || !*p.Dirty || p.Stash != "0123abcd" {
		t.Fatalf("dirty point's stash did not round-trip: %+v", p)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"stash"`); n != 1 {
		t.Errorf("trajectory encodes %d stash fields, want 1 (the clean point omits it): %s", n, data)
	}
}

// TestGitStashNamesDirtyTree checks gitStash against a scratch repository:
// a clean tree yields no hash, a dirty one a commit whose tree holds the
// edit, and neither touches the working tree or the stash list.
func TestGitStashNamesDirtyTree(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return strings.TrimSpace(string(out))
	}
	git("init", "-q")
	file := filepath.Join(dir, "f.txt")
	if err := os.WriteFile(file, []byte("one\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	git("add", "f.txt")
	git("-c", "user.name=t", "-c", "user.email=t@localhost", "commit", "-q", "-m", "init")
	if h := gitStash(dir); h != "" {
		t.Fatalf("clean tree: gitStash = %q, want empty", h)
	}
	if err := os.WriteFile(file, []byte("two\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	h := gitStash(dir)
	if h == "" {
		t.Fatal("dirty tree: gitStash returned no hash")
	}
	if got := git("show", h+":f.txt"); got != "two" {
		t.Errorf("stash commit holds %q, want the edited content", got)
	}
	if data, _ := os.ReadFile(file); string(data) != "two\n" {
		t.Errorf("working tree changed to %q", data)
	}
	if list := git("stash", "list"); list != "" {
		t.Errorf("stash list gained entries: %q", list)
	}
}
