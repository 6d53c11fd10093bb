package core

import (
	"sort"
	"sync"
	"time"

	"repro/internal/cover"
	"repro/internal/gos"
	"repro/internal/solver"
	"repro/internal/sym"
	"repro/internal/symexec"
	"repro/internal/target"
	"repro/internal/trace"
)

// The parallel scheduler runs exploration rounds in synchronous batches.
// Each batch pops up to Workers candidates from the frontier in the
// search strategy's order (one under depth-first search), runs every
// round on its own goroutine against a frozen view of the dedup maps,
// and then replays the rounds' recorded effects strictly in dispatch
// order on the single-threaded engine state.
//
// Replay order is what keeps verdicts deterministic: a terminal round
// (solved or crashed) cuts off every later-dispatched round of its batch,
// so the winning round is the same one a sequential engine would have
// reached first — first success wins, with the round index as the
// tiebreak, never goroutine timing. With Workers=1 each batch holds one
// round and the engine's observable behaviour (outcome fields, incident
// order, round numbering, solver random seeds) is identical to the
// historical sequential loop.
//
// Because workers cannot see flips resolved by rounds merged earlier in
// the same batch, they may re-solve a query or re-derive a push; replay
// gates every flip-derived event on the authoritative seenFlip map, so
// those duplicates collapse and the merged state matches the sequential
// schedule. The duplicate solver work itself is largely absorbed by the
// engine's query cache.

// evKind tags one recorded engine effect.
type evKind int

const (
	evFault evKind = iota + 1 // concrete run ended in an unhandled fault
	evIncident
	evTainted
	evSimUsed
	evSolverExhausted
	evClaim
	evMark // mark a flip explored
	evPush
	evTerminal
)

// event is one engine effect recorded by a worker, replayed by the
// scheduler. Events carrying a flip key are dropped wholesale when the
// flip was already resolved by an earlier round.
type event struct {
	kind     evKind
	flip     string
	incident symexec.Incident
	claim    Claim
	input    target.Input // push payload, fault input, or solving input
	flipEdge cover.Edge   // coverage-scoring signal attached to a push
	tainted  int
	verdict  Verdict
	detail   string
}

// roundRec is the full record of one exploration round.
type roundRec struct {
	idx    int // 1-based round number, assigned at dispatch
	events []event
	// stats is the round's counter delta (solver queries and copied
	// guest pages), folded into the engine's at merge.
	stats Stats

	// Coverage payload: the run's coverage set plus the input, so the
	// scheduler can merge coverage in dispatch order and feed the fuzz
	// corpus deterministically.
	cov   *cover.Set
	input target.Input
}

// candidate is one frontier entry: the input to try. flipEdge, set under
// SearchCoverage, is the branch edge the candidate's model was built to
// flip — the coverage scorer's signal (zero: no targeted flip, e.g. the
// seed or a fuzz mutant).
type candidate struct {
	in       target.Input
	flipEdge cover.Edge
}

func (r *roundRec) emit(ev event) { r.events = append(r.events, ev) }

// popBatch removes up to n candidates from the frontier in strategy
// order. Under SearchCoverage it pops from the scored generation view
// only — never from the buffer of pending pushes — so a batch cannot
// cross a generation boundary (the determinism barrier; see
// coverage.go). Under SearchDFS it pops the deepest candidate alone: the
// next round must descend into what this one pushes, so popping the k
// deepest at once would make the schedule depend on the worker count.
// The caller guarantees n > 0 and a non-empty frontier.
func (en *Engine) popBatch(n int) []candidate {
	switch en.caps.Search {
	case SearchCoverage:
		if v := en.viewLen(); n > v {
			n = v
		}
		batch := make([]candidate, n)
		copy(batch, en.view[en.viewHead:en.viewHead+n])
		en.viewHead += n
		if en.viewHead == len(en.view) {
			en.view, en.viewHead = nil, 0
		}
		return batch
	case SearchDFS:
		last := len(en.queue) - 1
		c := en.queue[last]
		en.queue = en.queue[:last]
		return []candidate{c}
	}
	if f := en.frontierLen(); n > f {
		n = f
	}
	batch := make([]candidate, n)
	copy(batch, en.queue[en.head:en.head+n])
	en.head += n
	en.compact()
	return batch
}

// compact releases the consumed prefix of the BFS queue once it dominates
// the backing array, keeping the pop O(1) without leaking the array.
func (en *Engine) compact() {
	if en.head > 32 && en.head*2 >= len(en.queue) {
		en.queue = append(en.queue[:0:0], en.queue[en.head:]...)
		en.head = 0
	}
}

// frontierLen counts every pending candidate: the push buffer plus,
// under SearchCoverage, the unpopped remainder of the current
// generation view.
func (en *Engine) frontierLen() int {
	return len(en.queue) - en.head + en.viewLen()
}

// runBatch executes the batch's rounds, in parallel when more than one
// worker is available. Workers only read engine state (image, caps,
// deadline, the frozen dedup maps) and the mutex-guarded solver cache.
func (en *Engine) runBatch(batch []candidate) []*roundRec {
	base := en.out.Rounds
	recs := make([]*roundRec, len(batch))
	if len(batch) == 1 {
		recs[0] = en.runRound(batch[0], base+1)
		return recs
	}
	var wg sync.WaitGroup
	for i := range batch {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = en.runRound(batch[i], base+i+1)
		}(i)
	}
	wg.Wait()
	return recs
}

// applyRound replays one round's events onto the engine state. It returns
// true when the round is terminal (exploration must stop).
func (en *Engine) applyRound(rec *roundRec) bool {
	// The progress hook fires after the round's full effect — stats,
	// coverage merge, event replay — has landed, terminal rounds
	// included; deferring covers both exits.
	defer en.emitProgress()
	en.out.Rounds++
	en.out.CandidatesTried++
	en.stats.Add(&rec.stats)
	if rec.cov != nil {
		// Coverage merges in dispatch order on the engine thread, so the
		// per-round novelty counts — and the corpus they feed — are
		// identical at every worker count (the runs themselves depend only
		// on their inputs).
		newEdges := en.cov.Merge(rec.cov)
		en.stats.NewEdgesPerRound = append(en.stats.NewEdgesPerRound, newEdges)
		if newEdges > 0 && en.fuzzOn() {
			en.corpusAdd(rec.input)
		}
	}
	var gated map[string]bool
	for i := range rec.events {
		ev := &rec.events[i]
		if ev.flip != "" {
			// Gate the whole flip on the state seen at its first event, so
			// a mark inside the flip does not suppress its own push.
			g, ok := gated[ev.flip]
			if !ok {
				g = en.seenFlip[ev.flip]
				if gated == nil {
					gated = make(map[string]bool)
				}
				gated[ev.flip] = g
			}
			if g {
				continue
			}
		}
		switch ev.kind {
		case evFault:
			en.out.FaultInputs = append(en.out.FaultInputs, ev.input)
		case evIncident:
			en.mergeIncidents([]symexec.Incident{ev.incident})
		case evTainted:
			en.out.TaintedPerRound = append(en.out.TaintedPerRound, ev.tainted)
		case evSimUsed:
			en.out.SimulationUsed = true
		case evSolverExhausted:
			en.out.SolverExhausted = true
		case evClaim:
			en.out.Claims = append(en.out.Claims, ev.claim)
		case evMark:
			en.seenFlip[ev.flip] = true
		case evPush:
			en.push(candidate{in: ev.input, flipEdge: ev.flipEdge})
		case evTerminal:
			en.out.Verdict = ev.verdict
			en.out.CrashDetail = ev.detail
			if ev.verdict == VerdictSolved {
				en.out.Input = ev.input
			}
			return true
		}
	}
	return false
}

// emitProgress reports the cumulative counters after a merged round to
// the Capabilities.Progress hook, if any. It runs on the engine
// goroutine in round order — the same order at every worker count — so
// streamed progress is as deterministic as the verdict.
func (en *Engine) emitProgress() {
	if en.caps.Progress == nil {
		return
	}
	edges, blocks := en.cov.Len()
	en.caps.Progress(Progress{
		Round:         en.out.Rounds,
		SolverQueries: en.stats.SolverQueries,
		CoveredEdges:  edges,
		CoveredBlocks: blocks,
		Frontier:      en.frontierLen(),
	})
}

// runRound executes one concrete run plus its symbolic pass and negation
// solving, recording effects instead of applying them. It must not write
// any engine state: it may run concurrently with other rounds of the same
// batch (each round's machine clones the shared program's boot memory,
// which nothing writes).
func (en *Engine) runRound(c candidate, idx int) *roundRec {
	in := c.in
	rec := &roundRec{idx: idx}
	if en.ctx.Err() != nil {
		// Cancelled while the batch was in flight: skip the concrete run;
		// the scheduler's context check ends exploration after replay.
		return rec
	}

	// The trace buffer goes back when symexec and negate are done with
	// it: nothing the round records keeps an entry (incidents and
	// constraints hold indices).
	tr := en.takeTrace()
	defer en.putTrace(tr)
	m, res, err := en.runConcrete(in, tr)
	if err != nil {
		rec.emit(event{kind: evTerminal, verdict: VerdictCrashed, detail: err.Error()})
		return rec
	}
	rec.stats.PagesCOWFaulted = m.COWFaults()
	// Every concrete run feeds coverage, whatever the strategy, so the
	// counters stay comparable across strategies.
	rec.cov = res.Cover
	rec.input = in

	if res.Reason == gos.StopFault {
		rec.emit(event{kind: evFault, input: in})
	}
	// A trace containing a hardware fault is only analyzable by tools
	// that trace through exception dispatch; the others reject the whole
	// run (their tracer/emulator cannot process it), so a detonation in
	// such a run is never observed by the tool.
	if idxf := faultIndex(res.Trace); idxf >= 0 {
		switch en.caps.Sym.Exc {
		case symexec.ExcCrash:
			rec.emit(event{kind: evTerminal, verdict: VerdictCrashed,
				detail: "emulator fault: exception dispatch unsupported"})
			return rec
		case symexec.ExcEs1:
			rec.emit(event{kind: evIncident, incident: symexec.Incident{
				Stage: symexec.StageEs1, Index: idxf,
				Detail: "exception handler instructions cannot be traced",
			}})
			return rec
		case symexec.ExcEs2:
			rec.emit(event{kind: evIncident, incident: symexec.Incident{
				Stage: symexec.StageEs2, Index: idxf,
				Detail: "exception handler effect on symbolic state lost",
			}})
			return rec
		}
	}
	if res.Hit(en.target) {
		rec.emit(event{kind: evTerminal, verdict: VerdictSolved, input: in})
		return rec
	}

	// Emulation-layer gaps: network IO the engine cannot perform.
	if !en.caps.WebSyscall && res.Web {
		rec.emit(event{kind: evTerminal, verdict: VerdictCrashed,
			detail: "network system call unsupported by the emulation layer"})
		return rec
	}

	// Rebuild the run's config view for the symbolic pass; only the
	// input-derived fields (argv, env facets, files) matter here.
	cfg := in.Config()
	opts := en.caps.Sym
	opts.Env = symexec.EnvInfo{TimeNow: cfg.TimeNow, Pid: cfg.Pid}
	for f := range cfg.Files {
		opts.Env.KnownFiles = append(opts.Env.KnownFiles, f)
	}
	sort.Strings(opts.Env.KnownFiles)
	sr := symexec.Run(en.img, res.Trace, res.Argv, cfg.Argv, opts)

	for _, inc := range sr.Incidents {
		rec.emit(event{kind: evIncident, incident: inc})
	}
	rec.emit(event{kind: evTainted, tainted: len(sr.TaintedIdx)})
	if sr.SimulationUsed {
		rec.emit(event{kind: evSimUsed})
	}
	if sr.Crashed {
		rec.emit(event{kind: evTerminal, verdict: VerdictCrashed, detail: sr.CrashDetail})
		return rec
	}

	en.negate(rec, in, sr, res.Trace)
	return rec
}

// runConcrete performs one concrete execution of in from the program's
// entry point, on a machine that clones the engine's loaded program.
// Shared by concolic rounds and fuzz breed executions.
//
// Every run builds Result.Cover. With a trace buffer the run records
// into it; with tr nil the run is coverage-only: no trace is kept,
// which is all a fuzz mutant needs.
func (en *Engine) runConcrete(in target.Input, tr *trace.Trace) (*gos.Machine, *gos.Result, error) {
	cfg := in.Config()
	cfg.Record = tr != nil
	cfg.TraceBuf = tr
	cfg.Cover = true
	cfg.CoverLeaders = true
	cfg.MaxSteps = en.caps.StepBudget
	cfg.WatchAddrs = []uint64{en.target}
	if en.prog == nil {
		return nil, nil, en.loadErr
	}
	m := gos.NewProgram(en.prog, cfg)
	return m, m.Run(), nil
}

// takeTrace returns an idle trace buffer, or a new one when every
// buffer is in use by a running round.
func (en *Engine) takeTrace() *trace.Trace {
	en.traceMu.Lock()
	defer en.traceMu.Unlock()
	n := len(en.traces)
	if n == 0 {
		return &trace.Trace{}
	}
	tr := en.traces[n-1]
	en.traces[n-1] = nil
	en.traces = en.traces[:n-1]
	return tr
}

// putTrace returns a round's trace buffer to the idle list, clearing
// its entries first so their syscall and exception events can be freed.
func (en *Engine) putTrace(tr *trace.Trace) {
	clear(tr.Entries)
	tr.Entries = tr.Entries[:0]
	en.traceMu.Lock()
	en.traces = append(en.traces, tr)
	en.traceMu.Unlock()
}

// negate builds and solves the negation of each explorable constraint
// (generational search) and records the resulting inputs.
func (en *Engine) negate(rec *roundRec, cur target.Input, sr *symexec.Result, tr *trace.Trace) {
	// Forward occurrence numbering keeps flip keys stable across rounds
	// (the n-th execution of a loop branch keeps its identity as traces
	// lengthen).
	occurrence := make(map[uint64]int)
	occ := make([]int, len(sr.Constraints))
	for i := range sr.Constraints {
		occ[i] = occurrence[sr.Constraints[i].PC]
		occurrence[sr.Constraints[i].PC]++
	}
	queryOpts := solver.Options{
		MaxConflicts: en.caps.SolverConflicts,
		FP:           en.caps.FP,
		FPIterations: en.caps.FPIterations,
		Timeout:      en.caps.SolverTimeout,
		Seed:         sr.Seed,
	}
	n := len(sr.Constraints)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var flipEdges []cover.Edge
	if en.caps.Search == SearchCoverage && n > 0 {
		// Flip-target edges: the coverage scorer's signal for the pushed
		// candidates, and the issue-order key below. Read-only against
		// the engine's cumulative set — safe from parallel rounds, because
		// merges only happen between batches.
		flipEdges = make([]cover.Edge, n)
		uncovered := make([]bool, n)
		for i := range sr.Constraints {
			flipEdges[i] = en.flipEdgeFor(sr.Constraints[i], tr)
			uncovered[i] = flipEdges[i] != (cover.Edge{}) && !en.cov.HasEdge(flipEdges[i])
		}
		// Issue queries for still-uncovered targets first. Each query
		// builds its whole system and seeds by constraint index, so its
		// result is issue-order-independent. Recorded events are grouped
		// per constraint and flattened in ascending index below, so the
		// replayed schedule — and every determinism guarantee — is
		// unchanged; what moves is which negations get solver time
		// before the budget runs out.
		sort.SliceStable(order, func(x, y int) bool {
			return uncovered[order[x]] && !uncovered[order[y]]
		})
	}
	// Events group per constraint and flatten in ascending constraint
	// order (the historical emission order), whatever order the queries
	// were issued in.
	groups := make([][]event, n)
	defer func() {
		for gi := range groups {
			rec.events = append(rec.events, groups[gi]...)
		}
	}()

	for oi := 0; oi < n; oi++ {
		i := order[oi]
		emit := func(ev event) { groups[i] = append(groups[i], ev) }
		if en.ctx.Err() != nil {
			// Cancellation is not budget exhaustion: stop recording and
			// let the scheduler's context check decide the verdict.
			return
		}
		if time.Now().After(en.deadline) {
			emit(event{kind: evSolverExhausted})
			return
		}
		pc := sr.Constraints[i]
		if pc.Kind == symexec.KindAssume {
			continue
		}
		// Keyed by input length: an UNSAT flip can become satisfiable
		// once the argument grows (the iterative-lengthening pattern), so
		// its verdict only holds per length. SAT and UNKNOWN flips are
		// never retried for the same key.
		flipKey := flipKeyFor(pc, occ[i], len(cur.Argv1))
		if en.seenFlip[flipKey] {
			continue
		}

		rec.stats.SolverQueries++
		system := make([]sym.Expr, 0, i+1)
		for j := 0; j < i; j++ {
			system = append(system, sr.Constraints[j].Expr)
		}
		system = append(system, sym.NewBoolNot(pc.Expr))
		opts := queryOpts
		opts.RandSeed = int64(rec.idx*1000 + i)
		resu, err := en.cache.SolveContext(en.ctx, system, opts)
		if err != nil {
			continue
		}
		switch resu.Status {
		case solver.StatusUnknown:
			// Hopeless within budget; don't retry.
			emit(event{kind: evSolverExhausted, flip: flipKey})
			emit(event{kind: evMark, flip: flipKey})
			continue
		case solver.StatusFloatUnsupported:
			emit(event{kind: evIncident, flip: flipKey, incident: symexec.Incident{
				Stage: symexec.StageEs3, Index: pc.Index, PC: pc.PC,
				Detail: "floating-point theory unsupported by the solver",
			}})
			continue
		case solver.StatusUnsat:
			// Branch direction infeasible on this prefix; mark explored.
			emit(event{kind: evMark, flip: flipKey})
			continue
		}

		// Satisfiable: realize the model as an input.
		next, realized, truncated := reconstruct(resu.Model, sr.Seed, cur, en.caps)
		if truncated {
			emit(event{kind: evIncident, flip: flipKey, incident: symexec.Incident{
				Stage: symexec.StageEs2, Index: pc.Index, PC: pc.PC,
				Detail: "model requires a longer input than the tool can construct",
			}})
		}
		if !realized {
			// The model binds only unrealizable (simulation) variables:
			// the tool believes the flipped path is feasible but cannot
			// build an input for it.
			if bindsSim(resu.Model) {
				emit(event{kind: evClaim, flip: flipKey, claim: Claim{
					PC:      pc.PC,
					Syscall: bindsSyscallSim(resu.Model),
					Input:   cur,
				}})
			}
			emit(event{kind: evMark, flip: flipKey})
			continue
		}
		var fe cover.Edge
		if flipEdges != nil {
			fe = flipEdges[i]
		}
		emit(event{kind: evMark, flip: flipKey})
		emit(event{kind: evPush, flip: flipKey, input: next, flipEdge: fe})
	}
}
