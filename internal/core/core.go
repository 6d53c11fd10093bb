// Package core implements the concolic execution engine — the paper's
// Figure 1 framework. Each round runs the program concretely, filters and
// lifts the trace, extracts path constraints symbolically, negates branch
// constraints to build new models, solves them, and schedules the
// resulting inputs for the next round, until the directed target (the
// bomb) is reached or budgets run out.
//
// A Capabilities value configures the engine as one of the studied tools;
// the same loop produces the paper's ✓ / Es0–Es3 / E / P outcomes purely
// from which capabilities are present.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bin"
	"repro/internal/cover"
	"repro/internal/solver"
	"repro/internal/suggest"
	"repro/internal/sym"
	"repro/internal/symexec"
	"repro/internal/target"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Capabilities configures the engine as a particular tool.
type Capabilities struct {
	Name string

	// Sym configures the symbolic execution stage (sources, channels,
	// memory model, lifting gates, ...). Env is filled per run.
	Sym symexec.Options

	// FP selects the floating-point solving strategy.
	FP solver.FPMode
	// SolverConflicts bounds each SAT query; exhaustion contributes to E.
	SolverConflicts int64
	// SolverTimeout bounds each query's wall-clock time (the paper's
	// analysis timeout); exhaustion contributes to E.
	SolverTimeout time.Duration
	// FPIterations bounds each FP local search.
	FPIterations int

	// GrowArgv permits reconstructed arguments longer than the current
	// one; without it, longer models are truncated (wrong inputs, Es2).
	GrowArgv bool
	// MaxArgvLen caps argument growth.
	MaxArgvLen int

	// Search selects the exploration strategy (zero value: generational).
	Search SearchStrategy

	// Fuzz enables hybrid mutation-fuzzing breed rounds between coverage
	// generations: purely concrete executions of deterministic mutants
	// whose new-coverage survivors join the frontier as seeds with zero
	// solver cost. Only meaningful under SearchCoverage.
	Fuzz bool
	// FuzzSeed seeds the deterministic mutation stream (any value,
	// including 0, is a valid fixed seed).
	FuzzSeed int64

	// CoverGoal, in (0, 1], stops exploration early once that fraction of
	// the image's static basic blocks has been covered
	// (VerdictCoverGoal, paper outcome E: the analysis was cut short).
	CoverGoal float64

	// MaxRounds bounds concrete executions. StepBudget bounds each
	// concrete run.
	MaxRounds  int
	StepBudget int

	// WebSyscall false makes the engine abort (E) when the trace performs
	// network IO the emulation layer cannot handle.
	WebSyscall bool

	// TotalBudget bounds one directed-search task's wall-clock time (the
	// paper's ten-minute per-task timeout, scaled); exhaustion gives E.
	TotalBudget time.Duration

	// Workers bounds how many exploration rounds run concurrently
	// (<= 0: runtime.GOMAXPROCS(0)). Workers == 1 reproduces the
	// historical sequential loop exactly; larger values run frontier
	// candidates in parallel batches with deterministic verdicts (see
	// scheduler.go).
	Workers int

	// SharedCache, when non-nil, backs the engine's solver query cache
	// with a persistent tier shared across replicas (see
	// solver.Cache.SetShared): LRU misses consult it before solving, and
	// solved queries write through. Tier entries are seed-independent raw
	// results keyed by cross-process-stable digests, so sharing them
	// never perturbs verdicts. The caller owns the tier's lifecycle.
	SharedCache solver.QueryCache

	// Progress, when non-nil, is called on the engine goroutine after
	// each merged round with cumulative counters — the streaming-progress
	// hook. It runs inside the exploration loop in round order, so it
	// must be fast and must not call back into the engine.
	Progress func(Progress)
}

// Progress is one per-round progress report: the cumulative counters as
// of the round it follows. Values are deltas-friendly (monotone), and —
// like the verdict — deterministic for a fixed seed and worker count.
// The JSON names are the Stats names; concolicd streams it as is.
type Progress struct {
	// Round is the 1-based merged round this report follows.
	Round int `json:"round"`
	// SolverQueries is the cumulative negation-query count.
	SolverQueries int `json:"solver_queries"`
	// CoveredEdges/CoveredBlocks is the engine tracker's cumulative
	// coverage.
	CoveredEdges  int `json:"covered_edges"`
	CoveredBlocks int `json:"covered_blocks"`
	// Frontier is the number of pending candidates after the round.
	Frontier int `json:"frontier"`
}

// ResolvedWorkers returns the worker count Explore will actually use:
// Workers, or runtime.GOMAXPROCS(0) when unset.
func (c Capabilities) ResolvedWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// SearchStrategy selects how new inputs are scheduled.
type SearchStrategy int

// Search strategies.
const (
	// SearchGenerational negates every unexplored branch of each trace
	// and schedules breadth-first (SAGE-style; the default).
	SearchGenerational SearchStrategy = iota
	// SearchDFS schedules depth-first: newly generated inputs are
	// explored before older ones, following one path deep.
	SearchDFS
	// SearchCoverage schedules by coverage yield: candidates buffer into
	// generations, and at each generation boundary they are scored by
	// whether the branch edge their model was built to flip is still
	// uncovered, highest yield first (see coverage.go). With Fuzz set,
	// mutation breed rounds run between generations.
	SearchCoverage
)

func (s SearchStrategy) String() string {
	switch s {
	case SearchGenerational:
		return "generational"
	case SearchDFS:
		return "dfs"
	case SearchCoverage:
		return "coverage"
	}
	return "invalid"
}

// SearchStrategyNames lists the accepted -strategy flag values in menu
// order.
func SearchStrategyNames() []string {
	return []string{"generational", "dfs", "coverage"}
}

// ParseSearchStrategy maps a -strategy flag value to its strategy.
// Unknown names get the uniform suggestion error (valid names plus
// closest match).
func ParseSearchStrategy(name string) (SearchStrategy, error) {
	switch name {
	case "", "generational":
		return SearchGenerational, nil
	case "dfs":
		return SearchDFS, nil
	case "coverage":
		return SearchCoverage, nil
	}
	return 0, suggest.Unknown("search strategy", name, SearchStrategyNames())
}

// Defaults.
const (
	DefaultMaxRounds     = 48
	DefaultMaxCandidates = 256 // inputs ever queued per engine
	DefaultMaxArgvLen    = 24
	DefaultStepBudget    = 400_000
	DefaultTotalBudget   = 60 * time.Second
	DefaultFuzzExecs     = 48 // mutant runs per breed round
)

// Verdict is the engine's conclusion about the target.
type Verdict int

// Verdicts.
const (
	// VerdictSolved: a generated input reached the target (replay-checked
	// by construction, since reaching it happens in a concrete run).
	VerdictSolved Verdict = iota + 1
	// VerdictUnreachable: exploration exhausted without reaching it.
	VerdictUnreachable
	// VerdictCrashed: the engine aborted (paper outcome E).
	VerdictCrashed
	// VerdictBudget: a resource budget was exhausted (paper outcome E).
	VerdictBudget
	// VerdictCancelled: the caller's context was cancelled mid-exploration
	// (service job cancellation); not a paper outcome.
	VerdictCancelled
	// VerdictCoverGoal: the configured coverage goal was reached and
	// exploration stopped early without a conclusion about the target
	// (paper outcome E, like any other deliberately cut-short analysis).
	VerdictCoverGoal
)

func (v Verdict) String() string {
	switch v {
	case VerdictSolved:
		return "solved"
	case VerdictUnreachable:
		return "unreachable"
	case VerdictCrashed:
		return "crashed"
	case VerdictBudget:
		return "budget-exhausted"
	case VerdictCancelled:
		return "cancelled"
	case VerdictCoverGoal:
		return "cover-goal-reached"
	}
	return "invalid"
}

// ParseVerdict maps a Verdict.String() rendering back to the verdict —
// the inverse a fleet client needs to decode a replica's job result.
func ParseVerdict(name string) (Verdict, error) {
	for v := VerdictSolved; v <= VerdictCoverGoal; v++ {
		if v.String() == name {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown verdict %q", name)
}

// Claim records a model the engine could not realize as a concrete input
// (it bound simulation variables): the tool "thinks" the path is feasible.
type Claim struct {
	PC      uint64
	Syscall bool // bound syscall-simulation variables (paper outcome P)
	Input   target.Input
}

// Outcome is the engine's result for one directed-search task.
type Outcome struct {
	Verdict     Verdict
	Input       target.Input // the solving input when Verdict == VerdictSolved
	Incidents   []symexec.Incident
	Claims      []Claim
	CrashDetail string

	// FaultInputs lists generated inputs whose concrete runs ended in an
	// unhandled fault — discovered bugs, in the paper's bug-detection
	// application scenario.
	FaultInputs []target.Input

	Rounds          int
	CandidatesTried int
	SolverExhausted bool // some query hit its budget
	SimulationUsed  bool
	TaintedPerRound []int // Figure 3 metric per round

	// Stats profiles the exploration (rounds, queries, cache, frontier,
	// wall time).
	Stats Stats
}

// MinIncidentStage returns the earliest error stage among incidents.
func (o *Outcome) MinIncidentStage() (symexec.Stage, bool) {
	if len(o.Incidents) == 0 {
		return 0, false
	}
	min := o.Incidents[0].Stage
	for _, in := range o.Incidents {
		if in.Stage < min {
			min = in.Stage
		}
	}
	return min, true
}

// Engine is a directed concolic explorer for one program image.
type Engine struct {
	img     *bin.Image
	caps    Capabilities
	target  uint64
	workers int

	seenInput map[string]bool
	seenFlip  map[string]bool
	queue     []candidate
	head      int // first live BFS element of queue
	out       *Outcome
	incSeen   map[string]bool
	deadline  time.Time
	ctx       context.Context // set once per Explore; read-only afterwards
	ctxBound  bool            // deadline comes from ctx, not TotalBudget
	cache     *solver.Cache
	stats     Stats
	arena0    sym.ArenaStats // arena counters at Explore entry, for deltas

	// Idle trace buffers of recorded runs, reused across rounds (see
	// takeTrace): at most one per round that ran concurrently.
	traceMu sync.Mutex
	traces  []*trace.Trace

	// Coverage state (see coverage.go). cov is the exploration's
	// cumulative coverage, the scoring and goal view. It has no lock:
	// only the engine goroutine merges into it (applyRound, breed), and
	// only between batches; a batch's rounds read it (negate) while no
	// merge runs.
	cov        *cover.Set
	prog       *vm.Program // the image's program; nil when undecodable
	loadErr    error       // why the image does not decode
	goalBlocks int         // resolved CoverGoal in blocks (0: no goal)

	// SearchCoverage generational frontier: pushes buffer into queue;
	// view is the current generation, scored and sorted at promotion.
	view     []candidate
	viewHead int
	gen      int

	// Hybrid fuzzing state: corpus holds inputs whose runs found new
	// coverage (breeding stock), fuzzSeen dedups executed mutants.
	corpus    []target.Input
	corpusIdx int
	fuzzSeen  map[string]bool
}

// New builds an engine targeting the given address (the bomb symbol).
func New(img *bin.Image, target uint64, caps Capabilities) *Engine {
	if caps.MaxRounds <= 0 {
		caps.MaxRounds = DefaultMaxRounds
	}
	if caps.MaxArgvLen <= 0 {
		caps.MaxArgvLen = DefaultMaxArgvLen
	}
	if caps.StepBudget <= 0 {
		caps.StepBudget = DefaultStepBudget
	}
	if caps.TotalBudget <= 0 {
		caps.TotalBudget = DefaultTotalBudget
	}
	workers := caps.ResolvedWorkers()
	// The image's program (decoded once per image and shared by every
	// engine) is what every round's machine starts from, and it gives
	// the coverage layer its static structure: block leaders for the
	// block metric and flip-target successors for candidate scoring. An
	// image that fails to decode runs no round.
	prog, loadErr := vm.Load(img)
	goalBlocks := 0
	if caps.CoverGoal > 0 && prog != nil && prog.NumLeaders() > 0 {
		goalBlocks = int(math.Ceil(caps.CoverGoal * float64(prog.NumLeaders())))
	}
	return &Engine{
		img:        img,
		caps:       caps,
		target:     target,
		workers:    workers,
		seenInput:  make(map[string]bool),
		seenFlip:   make(map[string]bool),
		incSeen:    make(map[string]bool),
		out:        &Outcome{},
		ctx:        context.Background(),
		cache:      newEngineCache(caps),
		cov:        cover.NewSet(),
		prog:       prog,
		loadErr:    loadErr,
		goalBlocks: goalBlocks,
		fuzzSeen:   make(map[string]bool),
	}
}

// newEngineCache builds the engine's query cache, backed by the
// caller's shared tier when one is configured.
func newEngineCache(caps Capabilities) *solver.Cache {
	c := solver.NewCache(solver.DefaultCacheSize)
	if caps.SharedCache != nil {
		c.SetShared(caps.SharedCache)
	}
	return c
}

// Explore runs the concolic loop from the seed input.
func (en *Engine) Explore(seed target.Input) *Outcome {
	return en.ExploreContext(context.Background(), seed)
}

// ExploreContext is Explore under a cancellation context: the serving
// layer's contract with the engine. A context deadline tightens (never
// loosens) the task wall-clock budget and yields VerdictBudget, exactly
// like TotalBudget exhaustion; plain cancellation yields
// VerdictCancelled. Both are observed between rounds, between negation
// queries, and inside a running SAT query (at restart boundaries), so a
// cancelled job stops mid-round instead of running to budget. Only the
// step-bounded concrete run of an already-dispatched round is not
// interruptible. With a background context the behaviour — including
// every determinism guarantee — is identical to Explore.
func (en *Engine) ExploreContext(ctx context.Context, seed target.Input) *Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	en.ctx = ctx
	start := time.Now()
	en.arena0 = sym.ArenaSnapshot()
	en.deadline = start.Add(en.caps.TotalBudget)
	if d, ok := ctx.Deadline(); ok && d.Before(en.deadline) {
		en.deadline = d
		en.ctxBound = true
	}
	en.push(candidate{in: seed})
	terminal := false
loop:
	for en.frontierLen() > 0 && en.out.Rounds < en.caps.MaxRounds {
		if err := ctx.Err(); err != nil {
			en.out.Verdict, en.out.CrashDetail = ctxVerdict(err)
			terminal = true
			break
		}
		if time.Now().After(en.deadline) {
			// The ctx timer can lag time.Now() by a tick; attribute the
			// timeout to whichever limit actually binds.
			en.out.Verdict = VerdictBudget
			if en.ctxBound {
				en.out.CrashDetail = "analysis timeout (context deadline)"
			} else {
				en.out.CrashDetail = "analysis timeout (task wall-clock budget)"
			}
			terminal = true
			break
		}
		if en.coverGoalReached() {
			en.out.Verdict = VerdictCoverGoal
			en.out.CrashDetail = en.coverGoalDetail()
			terminal = true
			break
		}
		if en.caps.Search == SearchCoverage && en.viewLen() == 0 {
			// Generation boundary: every candidate of the previous
			// generation has been merged, so the buffered pushes, the
			// coverage state, and therefore the breeding and scoring below
			// are identical at every worker count.
			if en.advanceGeneration() {
				terminal = true
				break
			}
			continue // re-check budgets and the goal before dispatching
		}
		if f := en.frontierLen(); f > en.stats.PeakFrontier {
			en.stats.PeakFrontier = f
		}
		batch := en.popBatch(min(en.workers, en.caps.MaxRounds-en.out.Rounds))
		for _, rec := range en.runBatch(batch) {
			if en.applyRound(rec) {
				terminal = true
				break loop
			}
		}
	}
	if !terminal {
		if err := ctx.Err(); err != nil {
			// Cancelled mid-round: negation was cut short, so an empty
			// frontier here means "stopped", not "explored everything".
			en.out.Verdict, en.out.CrashDetail = ctxVerdict(err)
			en.finishStats(start)
			return en.out
		}
		if en.out.SolverExhausted {
			en.out.Verdict = VerdictBudget
			en.out.CrashDetail = "constraint solving exhausted its budget"
		} else {
			// Exhausting the round budget with candidates pending is
			// exploration saturation, not an abnormal exit: the tool
			// simply never found the path (wall-clock exhaustion above is
			// what maps to E).
			en.out.Verdict = VerdictUnreachable
		}
	}
	en.finishStats(start)
	return en.out
}

// ctxVerdict maps a context error to the engine verdict and detail: a
// deadline is a wall-clock budget (paper outcome E), a plain cancel is
// the serving layer stopping the job.
func ctxVerdict(err error) (Verdict, string) {
	if err == context.DeadlineExceeded {
		return VerdictBudget, "analysis timeout (context deadline)"
	}
	return VerdictCancelled, "exploration cancelled: " + err.Error()
}

func (en *Engine) finishStats(start time.Time) {
	cs := en.cache.Stats()
	en.stats.Rounds = en.out.Rounds
	en.stats.CacheHits = cs.Hits
	en.stats.CacheMisses = cs.Misses
	en.stats.CacheEvictions = cs.Evictions
	en.stats.SharedCacheHits = cs.SharedHits
	en.stats.SharedCacheMisses = cs.SharedMisses
	en.stats.SharedCacheStores = cs.SharedStores
	en.stats.SharedCacheServed = cs.SharedServed
	en.stats.Workers = en.workers
	en.stats.WallTime = time.Since(start)
	as := sym.ArenaSnapshot()
	en.stats.InternHits = as.Hits - en.arena0.Hits
	en.stats.InternMisses = as.Misses - en.arena0.Misses
	en.stats.ArenaNodes = as.Size
	en.stats.CoveredEdges, en.stats.CoveredBlocks = en.cov.Len()
	en.out.Stats = en.stats
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (en *Engine) push(c candidate) {
	key := inputKey(c.in)
	if en.seenInput[key] || len(en.seenInput) >= DefaultMaxCandidates {
		return
	}
	en.seenInput[key] = true
	en.queue = append(en.queue, c)
}

// inputKey is an injective encoding of an input's facets, used to dedup
// frontier candidates. It runs once per push on the hot path, so it
// builds the key directly instead of going through fmt.
func inputKey(in target.Input) string {
	var b strings.Builder
	b.Grow(len(in.Argv1) + 24)
	b.WriteString(in.Argv1)
	b.WriteByte(0)
	b.WriteString(strconv.FormatUint(in.TimeNow, 10))
	b.WriteByte(0)
	b.WriteString(strconv.FormatUint(in.Pid, 10))
	if len(in.Web) > 0 {
		webKeys := make([]string, 0, len(in.Web))
		for k := range in.Web {
			webKeys = append(webKeys, k)
		}
		sort.Strings(webKeys)
		for _, k := range webKeys {
			b.WriteByte(0)
			b.WriteString(k)
			b.WriteByte(1)
			b.WriteString(in.Web[k])
		}
	}
	if len(in.Files) > 0 {
		fileKeys := make([]string, 0, len(in.Files))
		for k := range in.Files {
			fileKeys = append(fileKeys, k)
		}
		sort.Strings(fileKeys)
		for _, k := range fileKeys {
			b.WriteByte(0)
			b.WriteString(k)
			b.WriteByte(2)
			b.Write(in.Files[k])
		}
	}
	if len(in.Env) > 0 {
		envKeys := make([]string, 0, len(in.Env))
		for k := range in.Env {
			envKeys = append(envKeys, k)
		}
		sort.Strings(envKeys)
		for _, k := range envKeys {
			b.WriteByte(0)
			b.WriteString(k)
			b.WriteByte(3)
			b.WriteString(in.Env[k])
		}
	}
	return b.String()
}

// flipKeyFor builds the dedup key for negating one path constraint.
func flipKeyFor(pc symexec.PathConstraint, occ, argvLen int) string {
	var b strings.Builder
	if pc.Kind == symexec.KindJump {
		b.Grow(24)
		b.WriteString(strconv.FormatUint(pc.PC, 16))
		b.WriteString("|jump|")
		// The interned id identifies the target expression exactly and in
		// O(1); String() is O(tree) and exponential on shared DAGs.
		b.WriteString(sym.CanonicalKey([]sym.Expr{pc.Expr}))
		return b.String()
	}
	b.Grow(24)
	b.WriteString(strconv.FormatUint(pc.PC, 16))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(pc.Kind)))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(occ))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(argvLen))
	return b.String()
}

// faultIndex returns the index of the first faulting entry, or -1.
func faultIndex(tr *trace.Trace) int {
	if tr == nil {
		return -1
	}
	for i := range tr.Entries {
		if tr.Entries[i].Exc != nil {
			return i
		}
	}
	return -1
}

func (en *Engine) mergeIncidents(ins []symexec.Incident) {
	for _, in := range ins {
		key := fmt.Sprintf("%d|%#x|%s", in.Stage, in.PC, in.Detail)
		if en.incSeen[key] {
			continue
		}
		en.incSeen[key] = true
		en.out.Incidents = append(en.out.Incidents, in)
	}
}

func (en *Engine) incident(in symexec.Incident) {
	en.mergeIncidents([]symexec.Incident{in})
}

// bindsSim reports whether the model constrains any simulation variable.
func bindsSim(model map[string]uint64) bool {
	for name := range model {
		if symexec.IsSimVar(name) {
			return true
		}
	}
	return false
}

// bindsSyscallSim reports whether the model constrains syscall-simulation
// variables (as opposed to external-function summaries).
func bindsSyscallSim(model map[string]uint64) bool {
	for name := range model {
		if symexec.IsSimVar(name) && !isExtSim(name) {
			return true
		}
	}
	return false
}

func isExtSim(name string) bool {
	return len(name) > 8 && name[4:8] == "ext:"
}
