package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// inProcess runs the first n ops of each pass in the test process.
func inProcess(n int, outDir string) runner {
	return func(w *workload, seed int64, pass int, mode passMode) (*passResult, error) {
		start := time.Now()
		ops := passOrder(w, seed, pass)
		res, err := runPass(w, ops[:min(n, len(ops))], mode, outDir)
		if err != nil {
			return nil, err
		}
		res.SetupS = float64(res.SetupDoneNS-start.UnixNano()) / 1e9
		return res, nil
	}
}

// TestSmoke runs every workload on a few ops, untraced and traced, and
// checks that it emits exactly the metrics BENCHMARK.json names, with
// their units, and that no op fails.
func TestSmoke(t *testing.T) {
	runtime.GOMAXPROCS(procs)
	def, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.EndToEnd) > 16 || len(def.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(def.EndToEnd), len(def.PerLayer))
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	want := [2]map[string]string{{}, {}}
	for _, m := range def.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		want[1][m.Name] = m.Unit
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(def.Workloads), len(workloads))
	}
	for i, dw := range def.Workloads {
		w := workloads[i]
		if dw.Name != w.name || dw.Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q); the benchmark's is %q (%q)", i, dw.Name, dw.Why, w.name, w.why)
		}
		for mode, traced := range []bool{false, true} {
			res, err := runOne(w, inProcess(3, t.TempDir()), 1, 0, traced, "", io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed", w.name, traced, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				if !valid.MatchString(name) {
					t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", w.name, name)
				}
				if unit, ok := want[mode][name]; !ok || unit != m.Unit {
					t.Errorf("%s: emitted %s in %q; BENCHMARK.json has %q (listed: %v)", w.name, name, m.Unit, unit, ok)
				}
			}
			for name := range want[mode] {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: %s not emitted", w.name, traced, name)
				}
			}
		}
	}
}

// TestProbeAgreement checks the layer probe against the engine on every
// paper-grid cell: the probe's round-1 query count must equal the engine's
// first progress report, and every solving input must detonate when the
// probe runs it.
func TestProbeAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole paper grid")
	}
	runtime.GOMAXPROCS(procs)
	w, _ := workloadByName("paper-grid")
	res, err := runPass(w, w.ops(), modeProbe, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Probe.Cells != len(w.ops()) {
		t.Errorf("probed %d cells, want %d", res.Probe.Cells, len(w.ops()))
	}
	for _, d := range res.Probe.Disagreements {
		t.Error(d)
	}
	for _, r := range res.Ops {
		if r.Fail != "" {
			t.Errorf("%s: %s", r.Cell, r.Fail)
		}
	}
}

// TestSpeedProbe checks that the chase kernel's ring is one cycle through
// every index, so every load depends on the last, and that sampling
// yields a positive scale.
func TestSpeedProbe(t *testing.T) {
	sp, err := newSpeedProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer sp.close()
	p := uint32(0)
	for i := 1; i <= ringLen; i++ {
		p = sp.ring[p]
		if p == 0 && i < ringLen {
			t.Fatalf("ring returns to 0 after %d of %d steps", i, ringLen)
		}
	}
	if p != 0 {
		t.Fatalf("ring does not return to 0 after %d steps", ringLen)
	}
	if s := sp.scale(); s != 1 {
		t.Errorf("scale with no samples = %v, want 1", s)
	}
	sp.sample()
	if s := sp.scale(); !(s > 0) || sp.time() <= 0 {
		t.Errorf("after a sample: scale %v, time %v", s, sp.time())
	}
}

// TestParseTraces charges samples to the innermost repro/internal frame
// and leaves out the speed probe's.
func TestParseTraces(t *testing.T) {
	text := `File: bench
Type: cpu
-----------+-------------------------------------------------------
      20ms   repro/internal/sat.(*Solver).propagate
             repro/internal/solver.solveBV
             repro/internal/core.(*Engine).negate
-----------+-------------------------------------------------------
     1.50s   runtime.mallocgc
             repro/internal/sym.NewBin (inline)
             repro/internal/symexec.(*exec).walk
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   repro/internal/asm.Assemble
-----------+-------------------------------------------------------
      30ms   main.(*speedProbe).sample
             main.runEngine
`
	got, err := parseTraces([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sat": 0.02, "sym": 1.5, "runtime": 0.01, "other": 0.01}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for l, s := range want {
		if d := got[l] - s; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: %v s, want %v", l, got[l], s)
		}
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{5, 1}, 0, 6}, // Python extrapolates below two points a side
		{[]float64{3, 1, 2}, 1, 3},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestRecordRoundTrip checks that compare reads what -record writes.
func TestRecordRoundTrip(t *testing.T) {
	path := t.TempDir() + "/runs.jsonl"
	for _, v := range []float64{1, 2, 3} {
		res := &result{Correct: true, Attempted: 1, Metrics: map[string]metric{"pass_s": {Value: v, Unit: "s"}}}
		if err := appendRecord(path, "paper-grid", 1, false, res); err != nil {
			t.Fatal(err)
		}
	}
	s, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := s["paper-grid"]["pass_s"]; len(got) != 3 || got[2] != 3 {
		t.Errorf("read back %v", got)
	}
	b, _ := os.ReadFile(path)
	var rec map[string]json.RawMessage
	if err := json.Unmarshal([]byte(strings.SplitN(string(b), "\n", 2)[0]), &rec); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"workload", "seed", "trace", "correct", "attempted", "failed", "metrics"} {
		if _, ok := rec[k]; !ok {
			t.Errorf("record lacks %q", k)
		}
	}
}
