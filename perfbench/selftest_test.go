package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// benchmarkJSON is the part of BENCHMARK.json the self-test reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-selftest")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serverBin = filepath.Join(dir, "smpserve")
	if out, err := exec.Command("go", "build", "-o", serverBin, "smp/cmd/smpserve").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building smpserve: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// toy returns the configuration of a toy-scale run.
func toy(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     3,
		seconds:  0.6,
		trace:    trace,
		scale:    0.05,
		server:   serverBin,
		work:     t.TempDir(),
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the catalogue %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if bj.EndToEnd[i].Name != m.name || bj.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %s %s, catalogue %s %s", i, bj.EndToEnd[i].Name, bj.EndToEnd[i].Unit, m.name, m.unit)
		}
	}
	pl := perLayer()
	if len(bj.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the catalogue %d", len(bj.PerLayer), len(pl))
	}
	inJSON := map[string]string{}
	for _, m := range bj.PerLayer {
		inJSON[m.Name] = m.Unit
	}
	for _, m := range pl {
		if u, ok := inJSON[m.name]; !ok || u != m.unit {
			t.Errorf("per-layer %s %s: BENCHMARK.json has %q", m.name, m.unit, u)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program implements %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
}

// TestWorkloadsToyScale runs every workload, untraced and traced, and
// checks that each metric of BENCHMARK.json is emitted with its unit.
func TestWorkloadsToyScale(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				res, err := run(toy(t, name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				want := map[string]string{}
				if trace {
					for _, m := range bj.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bj.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s not emitted", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s unit %q, want %q", name, got.Unit, unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(want))
				}
				if trace {
					// Shares of a whole lie in [0, 1].
					for _, name := range []string{"ledger.residual_share", "ledger.worker_busy_ratio", "write.ms_share"} {
						if v := res.Metrics[name].Value; v < 0 || v > 1 {
							t.Errorf("%s = %v, outside [0, 1]", name, v)
						}
					}
				}
			})
		}
	}
}

// TestWrongReferenceFailsRun: an output that differs from its reference
// ends the run with an error, never with a result.
func TestWrongReferenceFailsRun(t *testing.T) {
	cfg := toy(t, "paper-serial", false)
	cfg.corruptRef = true
	res, err := run(cfg)
	if !errors.Is(err, errMismatch) {
		t.Errorf("run with a wrong reference digest returned %v, %v; want a mismatch error", res, err)
	}
}

// TestMeasureCountsFailures: failed operations count as attempted, and a
// loop in which every operation fails ends on time with an error.
func TestMeasureCountsFailures(t *testing.T) {
	b := newBench(config{}, t.TempDir())
	boom := errors.New("boom")
	acc, err := b.measure(0.05, func(acc *loopAcc) error {
		acc.sample(time.Millisecond, 1)
		acc.fail("op", boom)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc.attempted != 2*acc.stat.ops || acc.failed != acc.stat.ops {
		t.Errorf("attempted %d, failed %d, succeeded %d; want attempted = 2 × succeeded = 2 × failed", acc.attempted, acc.failed, acc.stat.ops)
	}
	done := make(chan error, 1)
	go func() {
		_, err := b.measure(0.05, func(acc *loopAcc) error {
			acc.fail("op", boom)
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("a loop in which every operation failed returned no error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a loop in which every operation fails did not end")
	}
}

// TestInjectedSleepTripsBound: a delay injected into the benchmark's call
// wrapper around the core layer must move throughput_mibps past its bound,
// so the comparison can see a slowdown of that size.
func TestInjectedSleepTripsBound(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var bound float64
	for _, m := range bj.EndToEnd {
		if m.Name == "throughput_mibps" {
			bound = m.Bound
		}
	}
	base, err := run(toy(t, "paper-serial", false))
	if err != nil {
		t.Fatal(err)
	}
	// A sleep as long as the median call should halve the throughput.
	sleep := time.Duration(base.Metrics["op_ms_p50"].Value * float64(time.Millisecond))
	cfg := toy(t, "paper-serial", false)
	cfg.injectLayer, cfg.injectSleep = "core", sleep
	slow, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, s := base.Metrics["throughput_mibps"].Value, slow.Metrics["throughput_mibps"].Value
	if worse := (b - s) / b; worse <= bound {
		t.Errorf("throughput %.1f -> %.1f MiB/s with a %v sleep per call: %.1f%% worse, bound %.0f%%", b, s, sleep, 100*worse, 100*bound)
	}
}
