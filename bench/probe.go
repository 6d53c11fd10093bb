package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bitblast"
	"repro/internal/bombs"
	"repro/internal/core"
	"repro/internal/gos"
	"repro/internal/sat"
	"repro/internal/solver"
	"repro/internal/sym"
	"repro/internal/symexec"
	"repro/internal/target"
	"repro/internal/trace"
)

// The layer probe times each layer from outside the engine, through the
// layers' own public calls, on the inputs a traced pass produced: the
// seed, the solving input and the fault inputs of every cell. For each it
// runs what one engine round runs (concrete execution, the symbolic pass,
// one negation query per constraint) and then solves every query again
// split into its bit-blast encoding and its SAT search.
//
// For the seed it also checks the probe against the engine: the engine's
// first round starts from the seed with nothing explored yet, so its
// query count must equal the probe's. A mismatch means the probe no
// longer mirrors core's round (scheduler.go).

// probeTarget is one cell to probe, with what its traced run produced.
type probeTarget struct {
	op           op
	opIdx        int
	firstQueries int
	solved       *target.Input
	faults       []target.Input
}

// probeResult holds the probe's per-layer samples.
type probeResult struct {
	Cells int `json:"cells"`

	GosUS []float64 `json:"gos_us"`
	Steps int64     `json:"steps"`
	GosS  float64   `json:"gos_s"`

	SymexecUS   []float64 `json:"symexec_us"`
	Entries     int64     `json:"entries"`
	SymexecS    float64   `json:"symexec_s"`
	Constraints int       `json:"constraints"`

	SolveUS []float64 `json:"solve_us"`
	Unknown int       `json:"unknown"`

	EncodeUS  []float64 `json:"encode_us"`
	Gates     int64     `json:"gates"`
	SatS      float64   `json:"sat_s"`
	Conflicts int64     `json:"conflicts"`
	Props     int64     `json:"props"`

	// Disagreements lists cells where the probe and the engine disagree.
	Disagreements []string `json:"disagreements,omitempty"`
}

func runProbe(targets []probeTarget, tr *tracer) *probeResult {
	p := &probeResult{Cells: len(targets)}
	for _, t := range targets {
		p.probeCell(t, tr)
	}
	return p
}

func (p *probeResult) probeCell(t probeTarget, tr *tracer) {
	parent := tr.id()
	start := time.Now()
	queries, _ := p.probeInput(t, t.op.bomb.Benign, parent, tr)
	if t.firstQueries >= 0 && queries != t.firstQueries {
		p.Disagreements = append(p.Disagreements, fmt.Sprintf(
			"%s: probe issues %d round-1 queries, engine %d", t.op.cell, queries, t.firstQueries))
	}
	if t.solved != nil {
		if _, res := p.probeInput(t, *t.solved, parent, tr); res == nil || !bombs.Triggered(res) {
			p.Disagreements = append(p.Disagreements, t.op.cell+": probed solving input does not detonate")
		}
	}
	for _, in := range t.faults {
		p.probeInput(t, in, parent, tr)
	}
	tr.add(parent, 0, t.opIdx, "probe", t.op.cell, start, time.Now(), nil)
}

// probeInput runs one round's layers on one input, as core's runRound
// does, and returns the negation queries the round issues and the
// concrete run's result.
func (p *probeResult) probeInput(t probeTarget, in target.Input, parent int, tr *tracer) (int, *gos.Result) {
	caps := t.op.profile.Caps
	img, addr := t.op.bomb.Image(), t.op.bomb.BombAddr()
	mark := func(name string, start time.Time, attrs map[string]int64) time.Duration {
		end := time.Now()
		tr.add(tr.id(), parent, t.opIdx, name, t.op.cell, start, end, attrs)
		return end.Sub(start)
	}

	cfg := in.Config()
	cfg.Record = true
	cfg.MaxSteps = caps.StepBudget
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = core.DefaultStepBudget
	}
	cfg.WatchAddrs = []uint64{addr}
	start := time.Now()
	m, err := gos.New(img, cfg)
	if err != nil {
		return 0, nil
	}
	res := m.Run()
	d := mark("gos", start, map[string]int64{"steps": int64(res.Steps)})
	p.GosUS = append(p.GosUS, us(d))
	p.GosS += d.Seconds()
	p.Steps += int64(res.Steps)

	// The round ends before the symbolic pass when the tool cannot use a
	// faulting trace, the target was reached, or the trace needs network
	// IO the tool cannot emulate.
	switch caps.Sym.Exc {
	case symexec.ExcCrash, symexec.ExcEs1, symexec.ExcEs2:
		if faulted(res.Trace) {
			return 0, res
		}
	}
	if res.Hit(addr) || (!caps.WebSyscall && usesWeb(res.Trace)) {
		return 0, res
	}

	opts := caps.Sym
	opts.Env = symexec.EnvInfo{TimeNow: cfg.TimeNow, Pid: cfg.Pid}
	for f := range cfg.Files {
		opts.Env.KnownFiles = append(opts.Env.KnownFiles, f)
	}
	sort.Strings(opts.Env.KnownFiles)
	start = time.Now()
	sr := symexec.Run(img, res.Trace, res.Argv, cfg.Argv, opts)
	d = mark("symexec", start, map[string]int64{"entries": int64(res.Trace.Len()), "constraints": int64(len(sr.Constraints))})
	p.SymexecUS = append(p.SymexecUS, us(d))
	p.SymexecS += d.Seconds()
	p.Entries += int64(res.Trace.Len())
	p.Constraints += len(sr.Constraints)
	if sr.Crashed {
		return 0, res
	}

	queries := 0
	for i, pc := range sr.Constraints {
		if pc.Kind == symexec.KindAssume {
			continue
		}
		queries++
		system := make([]sym.Expr, 0, i+1)
		for _, c := range sr.Constraints[:i] {
			system = append(system, c.Expr)
		}
		system = append(system, sym.NewBoolNot(pc.Expr))
		p.solve(system, caps, sr.Seed, int64(1000+i), mark)
	}
	return queries, res
}

// marker records a probe span that started at start and returns its
// duration.
type marker func(name string, start time.Time, attrs map[string]int64) time.Duration

// solve decides one negation query through the solver front end, then
// again as a bit-blast encoding plus a SAT search under the same budgets.
func (p *probeResult) solve(system []sym.Expr, caps core.Capabilities, seed map[string]uint64, randSeed int64, mark marker) {
	start := time.Now()
	r, err := solver.Solve(system, solver.Options{
		MaxConflicts: caps.SolverConflicts,
		FP:           caps.FP,
		FPIterations: caps.FPIterations,
		Timeout:      caps.SolverTimeout,
		Seed:         seed,
		RandSeed:     randSeed,
	})
	d := mark("solver", start, map[string]int64{"status": int64(r.Status)})
	p.SolveUS = append(p.SolveUS, us(d))
	if err == nil && r.Status == solver.StatusUnknown {
		p.Unknown++
	}
	if sym.HasFloat(system...) {
		return // float queries go to local search, not to the SAT backend
	}

	start = time.Now()
	s := sat.New()
	enc := bitblast.New(s)
	for _, c := range system {
		if enc.Assert(c) != nil {
			return
		}
	}
	d = mark("bitblast", start, map[string]int64{"gates": int64(enc.Gates())})
	p.EncodeUS = append(p.EncodeUS, us(d))
	p.Gates += int64(enc.Gates())

	var deadline time.Time
	if caps.SolverTimeout > 0 {
		deadline = time.Now().Add(caps.SolverTimeout)
	}
	conflicts := caps.SolverConflicts
	if conflicts <= 0 {
		conflicts = solver.DefaultMaxConflicts
	}
	start = time.Now()
	s.SolveDeadline(conflicts, deadline)
	st := s.Stats()
	d = mark("sat", start, map[string]int64{"conflicts": st.Conflicts, "propagations": st.Propagations})
	p.SatS += d.Seconds()
	p.Conflicts += st.Conflicts
	p.Props += st.Propagations
}

func faulted(tr *trace.Trace) bool {
	for i := range tr.Entries {
		if tr.Entries[i].Exc != nil {
			return true
		}
	}
	return false
}

func usesWeb(tr *trace.Trace) bool {
	for i := range tr.Entries {
		if s := tr.Entries[i].Sys; s != nil && s.Num == trace.SysWebGet {
			return true
		}
	}
	return false
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
