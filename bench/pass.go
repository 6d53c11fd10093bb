package main

import (
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/sym"
	"repro/internal/target"
)

// opResult is one op's measurements and correctness verdict.
type opResult struct {
	Cell  string  `json:"cell"`
	MS    float64 `json:"ms"`
	Label string  `json:"label"`
	Fail  string  `json:"fail,omitempty"`

	Rounds       int    `json:"rounds"`
	Queries      int    `json:"queries"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	SharedHits   uint64 `json:"shared_hits"`
	SharedMisses uint64 `json:"shared_misses"`
	Resumes      int    `json:"resumes"`
	COWPages     uint64 `json:"cow_pages"`
	Edges        int    `json:"edges"`
	FuzzExecs    int    `json:"fuzz_execs"`
	FuzzPromoted int    `json:"fuzz_promoted"`

	// QueueMS and RunMS split a fleet job's latency by the service's own
	// timestamps: submitted to started, started to finished.
	QueueMS float64 `json:"queue_ms,omitempty"`
	RunMS   float64 `json:"run_ms,omitempty"`

	// Traced passes only: the durations between successive progress
	// reports, and the solver queries of the first one (-1: none).
	RoundUS      []float64 `json:"round_us,omitempty"`
	FirstQueries int       `json:"first_queries"`
}

// passResult is what one pass reports to the process that runs it.
type passResult struct {
	// SetupDoneNS is the wall clock (Unix ns) when every image was
	// assembled and, for the fleet, the server was listening. The runner
	// turns it into SetupS with its own start time.
	SetupDoneNS int64      `json:"setup_done_ns"`
	SetupS      float64    `json:"setup_s"`
	WallS       float64    `json:"wall_s"`
	MaxRSSKB    int64      `json:"max_rss_kb"`
	Ops         []opResult `json:"ops"`
	// Scale turns the pass's times into times at the reference host speed
	// (see calib.go).
	Scale float64 `json:"scale"`

	GCCPUS       float64 `json:"gc_cpu_s"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	InternHits   uint64  `json:"intern_hits"`
	InternMisses uint64  `json:"intern_misses"`
	ArenaNodes   uint64  `json:"arena_nodes"`
	JournalBytes int64   `json:"journal_bytes"`

	// Traced passes only: the process CPU time while the profile ran, the
	// profile's path, and the layer probe.
	ProfileCPUS float64      `json:"profile_cpu_s,omitempty"`
	Profile     string       `json:"profile,omitempty"`
	Probe       *probeResult `json:"probe,omitempty"`
}

// passMode says what a pass process does.
type passMode string

const (
	modeSetup  passMode = "setup"  // set up and stop: one set-up time sample
	modePlain  passMode = "plain"  // untraced pass, for end-to-end metrics
	modeTraced passMode = "traced" // traced pass, for the tracing overhead
	modeProbe  passMode = "probe"  // traced pass, then the layer probe
)

// runPass runs one pass of ops in this process. A traced pass records
// spans and profiles the ops' CPU into outDir; a probe pass then runs the
// layer probe, unprofiled, and writes the spans there too.
func runPass(w *workload, ops []op, mode passMode, outDir string) (*passResult, error) {
	g, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	for _, o := range ops {
		o.bomb.Image()
	}
	var fl *fleet
	if w.fleet {
		if fl, err = startFleet(); err != nil {
			return nil, err
		}
		defer fl.close()
	}
	res := &passResult{SetupDoneNS: time.Now().UnixNano()}
	if mode == modeSetup {
		return res, nil
	}
	sp, err := newSpeedProbe()
	if err != nil {
		return nil, err
	}
	defer sp.close()

	var tr *tracer
	var prof *profiler
	if mode == modeTraced || mode == modeProbe {
		tr = newTracer()
		path := filepath.Join(outDir, w.name+".overhead.pprof")
		if mode == modeProbe {
			path = filepath.Join(outDir, w.name+".pprof")
		}
		if prof, err = startProfile(path); err != nil {
			return nil, err
		}
	}
	var probes []probeTarget
	if w.fleet {
		probes = runFleet(fl, w, ops, g, tr, sp, res)
	} else {
		probes = runEngine(w, ops, g, tr, sp, res)
	}
	if prof != nil {
		if err := prof.stop(res); err != nil {
			return nil, err
		}
		res.ProfileCPUS -= sp.time().Seconds() // the layers leave the speed probe out
	}
	res.Scale = sp.scale()
	readRuntime(res)

	if mode == modeProbe {
		res.Probe = runProbe(probes, tr)
		if err := tr.write(filepath.Join(outDir, w.name+".jsonl")); err != nil {
			return nil, err
		}
	}
	res.MaxRSSKB = maxRSSKB() - ringBytes/1024 // the speed probe's ring is resident
	return res, nil
}

// profiler profiles the CPU of a traced pass's ops.
type profiler struct {
	f    *os.File
	cpu0 float64
}

func startProfile(path string) (*profiler, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{f: f, cpu0: processCPUS()}, nil
}

// stop ends the profile and records it in res.
func (p *profiler) stop(res *passResult) error {
	pprof.StopCPUProfile()
	res.ProfileCPUS = processCPUS() - p.cpu0
	res.Profile = p.f.Name()
	return p.f.Close()
}

// runEngine runs the ops one after another through eval.RunCell, the
// path evaltable and the concolic CLI take. The speed probe samples before
// each op and after the last; the pass's time leaves its samples out.
func runEngine(w *workload, ops []op, g goldens, tr *tracer, sp *speedProbe, res *passResult) []probeTarget {
	var probes []probeTarget
	seen := map[string]bool{}
	start := time.Now()
	for i, o := range ops {
		sp.sample()
		r, out := runEngineOp(w, o, i, g, tr)
		res.Ops = append(res.Ops, r)
		if tr != nil && !seen[o.cell] {
			seen[o.cell] = true
			pt := probeTarget{op: o, opIdx: i, firstQueries: r.FirstQueries, faults: out.FaultInputs}
			if out.Verdict == core.VerdictSolved {
				in := out.Input
				pt.solved = &in
			}
			probes = append(probes, pt)
		}
	}
	sp.sample()
	res.WallS = (time.Since(start) - sp.time()).Seconds()
	return probes
}

// runEngineOp runs one cell. Traced, it records the op span and a round
// span between successive progress reports, with the counters' deltas.
func runEngineOp(w *workload, o op, idx int, g goldens, tr *tracer) (opResult, *core.Outcome) {
	r := opResult{Cell: o.cell, FirstQueries: -1}
	p := o.profile
	opID := tr.id()
	start := time.Now()
	if tr != nil {
		last, prev := start, core.Progress{}
		p.Caps.Progress = func(pr core.Progress) {
			now := time.Now()
			if r.FirstQueries < 0 {
				r.FirstQueries = pr.SolverQueries
			}
			r.RoundUS = append(r.RoundUS, float64(now.Sub(last).Nanoseconds())/1e3)
			tr.add(tr.id(), opID, idx, "round", "", last, now, map[string]int64{
				"round":     int64(pr.Round),
				"queries":   int64(pr.SolverQueries - prev.SolverQueries),
				"new_edges": int64(pr.CoveredEdges - prev.CoveredEdges),
				"frontier":  int64(pr.Frontier),
			})
			last, prev = now, pr
		}
	}
	out := eval.RunCell(o.bomb, p, o.paperIdx).Outcome
	end := time.Now()
	r.MS = float64(end.Sub(start).Nanoseconds()) / 1e6

	st := out.Stats
	r.Label = labelOf(out)
	r.Rounds, r.Queries = st.Rounds, st.SolverQueries
	r.CacheHits, r.CacheMisses = st.CacheHits, st.CacheMisses
	r.SharedHits, r.SharedMisses = st.SharedCacheHits, st.SharedCacheMisses
	r.Resumes, r.COWPages, r.Edges = st.CheckpointResumes, st.PagesCOWFaulted, st.CoveredEdges
	r.FuzzExecs, r.FuzzPromoted = st.FuzzExecs, st.FuzzSeedsPromoted
	var solved *target.Input
	if out.Verdict == core.VerdictSolved {
		solved = &out.Input
	}
	r.Fail = g.check(w, o, r.Label, solved, r.Edges)
	tr.add(opID, 0, idx, "op", o.cell, start, end, map[string]int64{"rounds": int64(r.Rounds)})
	return r, out
}

// readRuntime records the process's GC CPU, allocation and sym-arena
// counters; a pass runs in a fresh process, so these are the pass's.
func readRuntime(res *passResult) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		res.GCCPUS = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		res.AllocBytes = s[1].Value.Uint64()
	}
	a := sym.ArenaSnapshot()
	res.InternHits, res.InternMisses, res.ArenaNodes = a.Hits, a.Misses, a.Size
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// processCPUS is the process's user plus system CPU time.
func processCPUS() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSKB is the process's peak resident set (VmHWM), in KiB.
func maxRSSKB() int64 { return rusage().Maxrss }
