// Command bench is the repository benchmark: it runs the engine's four
// workloads, checks every result against bench/testdata/golden.json, and
// prints end-to-end metrics (untraced) or per-layer metrics (traced).
//
//	bash bench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --seed 1                  # every workload, both modes
//	bash bench/run.sh compare A.jsonl B.jsonl   # compare two sets of runs
//	bash bench/run.sh golden                    # rewrite the golden file
//
// Each pass of a workload runs in a fresh child process pinned to
// GOMAXPROCS 2 with one engine worker, so the work does not change with
// the machine. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// procs pins the benchmark's parallelism: GC and the fleet's second job
// get one core besides the engine's.
const procs = 2

func main() {
	runtime.GOMAXPROCS(procs)
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "golden":
			if err := writeGoldens(); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			return
		}
	}
	workloadName := flag.String("workload", "", "workload to run (empty: every workload, untraced then traced)")
	seed := flag.Int64("seed", 1, "seed the inputs are drawn from")
	seconds := flag.Float64("seconds", 30, "how long a workload's passes may take")
	traceMode := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	record := flag.String("record", "", "append each workload's result as a JSON line to this file")
	outDir := flag.String("out", filepath.Join(".bench_build", "trace"), "directory for spans and CPU profiles")
	child := flag.Bool("child", false, "internal: run one pass and print its result")
	pass := flag.Int("pass", 0, "internal: pass index")
	mode := flag.String("mode", string(modePlain), "internal: pass mode (setup, plain, traced, probe)")
	flag.Parse()

	if *child {
		if err := childMain(*workloadName, *seed, *pass, passMode(*mode), *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	run := childRunner(*outDir)
	var res *result
	var err error
	if *workloadName == "" {
		res, err = runAll(run, *seed, *seconds, *record, os.Stdout)
	} else {
		var w *workload
		if w, err = workloadByName(*workloadName); err == nil {
			res, err = runOne(w, run, *seed, *seconds, *traceMode == 1, *record, os.Stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner runs one pass of a workload and reports it.
type runner func(w *workload, seed int64, pass int, mode passMode) (*passResult, error)

// childRunner runs every pass in a fresh process, so no pass inherits
// another's heap, arena or caches. Set-up time counts from the exec.
func childRunner(outDir string) runner {
	return func(w *workload, seed int64, pass int, mode passMode) (*passResult, error) {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(self, "-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-pass", strconv.Itoa(pass), "-mode", string(mode), "-out", outDir)
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // no pass outlives the run
		start := time.Now()
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", w.name, pass, err)
		}
		var res passResult
		if err := json.Unmarshal(out, &res); err != nil {
			return nil, fmt.Errorf("%s pass %d: decode result: %w", w.name, pass, err)
		}
		res.SetupS = float64(res.SetupDoneNS-start.UnixNano()) / 1e9
		return &res, nil
	}
}

// childMain runs one pass and prints its result.
func childMain(name string, seed int64, pass int, mode passMode, outDir string) error {
	switch mode {
	case modeSetup, modePlain, modeTraced, modeProbe:
	default:
		return fmt.Errorf("unknown pass mode %q", mode)
	}
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	res, err := runPass(w, passOrder(w, seed, pass), mode, outDir)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// setupSamples is how many extra processes only set up, so set-up time
// is a median over enough samples to be steady.
const setupSamples = 9

// measure samples set-up time, then runs passes while the next one is
// expected to end within the time. A traced measurement pairs every traced
// pass with an untraced one, for the tracing overhead; the first traced
// pass also runs the probe. Set-up times are scaled to the reference host
// speed by the median of the passes' scales (see calib.go).
func measure(w *workload, run runner, seed int64, seconds float64, traced bool) (*runData, error) {
	start := time.Now()
	d := &runData{}
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		p, err := run(w, seed, i, modeSetup)
		if err != nil {
			return nil, err
		}
		setups = append(setups, p.SetupS)
	}
	// next is how long the next pass, or traced pair of passes, is expected
	// to take. The first traced pass's layer probe is a one-off, so a pair
	// counts as twice its untraced pass.
	var next time.Duration
	for pass := 0; pass == 0 || time.Since(start)+next <= time.Duration(seconds*float64(time.Second)); pass++ {
		began := time.Now()
		p, err := run(w, seed, pass, modePlain)
		if err != nil {
			return nil, err
		}
		next = time.Since(began)
		d.untraced = append(d.untraced, p)
		setups = append(setups, p.SetupS)
		if traced {
			next *= 2
			mode := modeTraced
			if pass == 0 {
				mode = modeProbe
			}
			if p, err = run(w, seed, pass, mode); err != nil {
				return nil, err
			}
			d.traced = append(d.traced, p)
		}
	}
	scale := median(perPass(d.untraced, func(p *passResult) float64 { return p.Scale }))
	for _, s := range setups {
		d.setups = append(d.setups, s*scale)
	}
	if traced {
		cpu, err := cpuByLayer(d.traced[0].Profile)
		if err != nil {
			return nil, err
		}
		d.cpu = cpu
	}
	return d, nil
}

// runOne measures one workload and reports its end-to-end or per-layer
// metrics, logging the detail behind them to log.
func runOne(w *workload, run runner, seed int64, seconds float64, traced bool, record string, log io.Writer) (*result, error) {
	d, err := measure(w, run, seed, seconds, traced)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: evaluate(endToEnd, d)}
	if traced {
		res.Metrics = evaluate(perLayer, d)
	}
	all := append(append([]*passResult(nil), d.untraced...), d.traced...)
	for i, p := range all {
		for _, r := range p.Ops {
			res.Attempted++
			if r.Fail != "" {
				res.Failed++
				fmt.Fprintf(log, "# FAIL %s pass %d %s: %s\n", w.name, i, r.Cell, r.Fail)
			}
		}
		if p.Probe != nil {
			res.Attempted += p.Probe.Cells
			res.Failed += len(p.Probe.Disagreements)
			for _, s := range p.Probe.Disagreements {
				fmt.Fprintf(log, "# FAIL %s probe %s\n", w.name, s)
			}
		}
	}
	res.Correct = res.Failed == 0
	logDetail(log, w, seed, d, res)
	if record != "" {
		if err := appendRecord(record, w.name, seed, traced, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runAll measures every workload untraced, then traced, and reports
// every metric under a "workload/metric" name.
func runAll(run runner, seed int64, seconds float64, record string, log io.Writer) (*result, error) {
	total := &result{Metrics: map[string]metric{}}
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			res, err := runOne(w, run, seed, seconds, traced, record, log)
			if err != nil {
				return nil, err
			}
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for name, m := range res.Metrics {
				total.Metrics[w.name+"/"+name] = m
			}
		}
	}
	total.Correct = total.Failed == 0
	return total, nil
}

// logDetail prints the samples behind the metrics: each timing's median,
// quartiles and sample count, the host speed scales and the unscaled pass
// times, and every metric's value.
func logDetail(log io.Writer, w *workload, seed int64, d *runData, res *result) {
	fmt.Fprintf(log, "# %s seed %d: %d untraced + %d traced passes, %d ops attempted, %d failed\n",
		w.name, seed, len(d.untraced), len(d.traced), res.Attempted, res.Failed)
	spread := func(name string, xs []float64) {
		q1, q3 := quartiles(xs)
		fmt.Fprintf(log, "#   %-16s median %.4g  q1 %.4g  q3 %.4g  n=%d\n", name, median(xs), q1, q3, len(xs))
	}
	spread("setup_s", d.setups)
	spread("pass_s", perPass(d.untraced, scaledWall))
	spread("op_ms", opMS(d.untraced))
	spread("host_scale", perPass(d.untraced, func(p *passResult) float64 { return p.Scale }))
	wall := median(perPass(d.untraced, func(p *passResult) float64 { return p.WallS }))
	spread("unscaled_pass_s", perPass(d.untraced, func(p *passResult) float64 { return p.WallS }))
	fmt.Fprintf(log, "#   %-16s %.4g ops/s unscaled\n", "throughput", ratio(float64(len(d.untraced[0].Ops)), wall))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "#   %-32s %.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// record is one measurement as `bench compare` reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func appendRecord(path, workload string, seed int64, traced bool, res *result) error {
	rec := record{Workload: workload, Seed: seed, result: *res}
	if traced {
		rec.Trace = 1
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
