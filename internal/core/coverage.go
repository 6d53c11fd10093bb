package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cover"
	"repro/internal/gos"
	"repro/internal/isa"
	"repro/internal/mutate"
	"repro/internal/symexec"
	"repro/internal/target"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Coverage-guided search (SearchCoverage) and the hybrid mutation
// fuzzer. The scheduler's determinism contract — identical outcomes at
// every worker count — rules out a live priority queue: re-scoring
// between pops would make the schedule depend on how many candidates a
// batch takes at once. Instead the frontier runs in generations,
// SAGE-style. New pushes buffer; when the current generation empties —
// a point at which every previously dispatched round has been merged,
// regardless of batching — the buffer is scored once against the
// cumulative coverage, stably sorted (score descending, push order as
// the tie-break), and becomes the next generation. Scores are frozen
// for the generation's lifetime and batches never cross a generation
// boundary, so the pop sequence is a pure function of (pushes,
// coverage), both of which the batch-synchronous scheduler already
// keeps worker-count-invariant.
//
// Breed rounds run at the same boundaries, on the engine's single
// scheduler thread: a deterministic-seeded mutator derives mutants of
// corpus inputs (inputs whose runs covered new edges — solved models
// included), executes them purely concretely and coverage-only, and
// promotes new-coverage survivors into the next generation as seeds.
// Shallow branches get flipped by cheap mutation; the solver's budget
// lands on the deep ones.

// Fuzz tuning.
const (
	// maxCorpus bounds the breeding stock; replacement is a ring, so
	// fresh coverage finders rotate in deterministically.
	maxCorpus = 64
	// maxFuzzPromote bounds frontier seeds promoted per breed round, so
	// fuzzing cannot flood MaxRounds and starve the targeted flips.
	maxFuzzPromote = 8
	// fuzzAttemptFactor bounds mutation attempts (including dedup skips)
	// per breed round, as a multiple of FuzzExecs.
	fuzzAttemptFactor = 4
)

func (en *Engine) fuzzOn() bool {
	return en.caps.Fuzz && en.caps.Search == SearchCoverage
}

// viewLen is the unpopped remainder of the current generation.
func (en *Engine) viewLen() int { return len(en.view) - en.viewHead }

// advanceGeneration runs at a generation boundary: breed mutants (which
// may detonate the target — the return value), then promote the buffered
// pushes into the next scored generation.
func (en *Engine) advanceGeneration() bool {
	en.gen++
	if en.breed() {
		return true
	}
	en.promote()
	return false
}

// promote scores and orders the buffered candidates into the next
// generation. Stable sort: equal scores keep push order, so the
// schedule is deterministic and, because promotion only happens when
// every prior round has been merged, identical at every worker count.
func (en *Engine) promote() {
	pending := en.queue[en.head:]
	type scored struct {
		c     candidate
		score int
	}
	sc := make([]scored, len(pending))
	for i, c := range pending {
		sc[i] = scored{c: c, score: en.scoreCandidate(c)}
	}
	sort.SliceStable(sc, func(i, j int) bool { return sc[i].score > sc[j].score })
	en.view = make([]candidate, len(sc))
	for i := range sc {
		en.view[i] = sc[i].c
	}
	en.viewHead = 0
	en.queue = nil
	en.head = 0
}

// scoreCandidate ranks a frontier candidate by the novelty of the
// branch edge its model was built to flip: 2 when that edge is still
// uncovered, plus 1 when even the flipped successor block has never
// run (the flip opens a whole new block, not just a new way in). Fuzz
// seeds and the initial input carry no flip edge and score 0 — breadth
// after the targeted flips.
func (en *Engine) scoreCandidate(c candidate) int {
	if c.flipEdge == (cover.Edge{}) {
		return 0
	}
	s := 0
	if !en.cov.HasEdge(c.flipEdge) {
		s = 2
	}
	if !en.cov.HasBlock(c.flipEdge.To) {
		s++
	}
	return s
}

// corpusAdd rotates an input into the breeding stock.
func (en *Engine) corpusAdd(in target.Input) {
	if len(en.corpus) < maxCorpus {
		en.corpus = append(en.corpus, in)
		return
	}
	en.corpus[en.corpusIdx%maxCorpus] = in
	en.corpusIdx++
}

// breed runs one mutation round: up to FuzzExecs concrete executions of
// deterministic mutants, merged into coverage, with new-coverage
// survivors promoted into the frontier. Returns true when a mutant
// detonated the target (VerdictSolved — legitimately, since detonation
// is observed in a concrete run). Runs on the engine thread only.
func (en *Engine) breed() bool {
	if !en.fuzzOn() || len(en.corpus) == 0 {
		return false
	}
	// One stream per (seed, generation): breeding happens at merged
	// boundaries, so the stream position never depends on worker count.
	mu := mutate.New(en.caps.FuzzSeed ^ int64(en.gen)*0x9e3779b9)
	splice := make([]string, len(en.corpus))
	for i := range en.corpus {
		splice[i] = en.corpus[i].Argv1
	}
	promoted, runs := 0, 0
	for attempts := 0; runs < en.caps.FuzzExecs && attempts < en.caps.FuzzExecs*fuzzAttemptFactor; attempts++ {
		if en.ctx.Err() != nil || time.Now().After(en.deadline) {
			return false
		}
		parent := en.corpus[mu.Intn(len(en.corpus))]
		maxLen := len(parent.Argv1)
		if en.caps.GrowArgv && en.caps.MaxArgvLen > maxLen {
			maxLen = en.caps.MaxArgvLen
		}
		in := parent
		in.Argv1 = mu.Mutate(parent.Argv1, splice, maxLen)
		key := inputKey(in)
		if en.fuzzSeen[key] || en.seenInput[key] {
			continue
		}
		en.fuzzSeen[key] = true
		_, res, err := en.runConcrete(in, false)
		if err != nil {
			continue
		}
		runs++
		en.stats.FuzzExecs++
		if res.Reason == gos.StopFault {
			en.out.FaultInputs = append(en.out.FaultInputs, in)
		}
		// A tool whose tracer rejects runs through exception dispatch (or
		// unsupported network IO) observes nothing from such a run: no
		// coverage, no detonation, no seed.
		if res.Faulted && en.caps.Sym.Exc != symexec.ExcTrace {
			continue
		}
		if !en.caps.WebSyscall && res.Web {
			continue
		}
		newEdges, _ := en.cov.Merge(res.Cover)
		cover.Global().Merge(res.Cover)
		if res.Hit(en.target) {
			en.out.Verdict = VerdictSolved
			en.out.Input = in
			return true
		}
		// Promote only what push would keep: the mutant is not in
		// seenInput (checked above), so only the candidate cap can drop it.
		if newEdges == 0 || promoted >= maxFuzzPromote || len(en.seenInput) >= en.caps.MaxCandidates {
			continue
		}
		en.push(candidate{in: in})
		promoted++
		en.stats.FuzzSeedsPromoted++
		en.corpusAdd(in)
	}
	return false
}

// coverGoalReached checks the early-stop block goal (never set by
// default).
func (en *Engine) coverGoalReached() bool {
	return en.goalBlocks > 0 && en.cov.Blocks() >= en.goalBlocks
}

func (en *Engine) coverGoalDetail() string {
	return fmt.Sprintf("coverage goal reached: %d edges, %d/%d blocks covered",
		en.cov.Edges(), en.cov.Blocks(), len(en.leaders))
}

// flipEdgeFor returns the control-flow edge that negating pc's branch
// would cover: from the branch to the successor the recorded run did
// NOT take. Zero for anything but conditional branches (an indirect
// jump's flip target comes from a solver model, not static structure).
func (en *Engine) flipEdgeFor(pc symexec.PathConstraint, tr *trace.Trace) cover.Edge {
	if pc.Kind != symexec.KindBranch || en.prog == nil || tr == nil {
		return cover.Edge{}
	}
	if pc.Index < 0 || pc.Index >= len(tr.Entries) {
		return cover.Edge{}
	}
	e := &tr.Entries[pc.Index]
	if e.PC != pc.PC {
		return cover.Edge{}
	}
	in, size, ok := en.prog.At(pc.PC)
	if !ok || !in.Op.IsCondJump() {
		return cover.Edge{}
	}
	if e.Taken {
		// Taken was recorded; the flip falls through.
		return cover.Edge{From: pc.PC, To: pc.PC + uint64(size)}
	}
	return cover.Edge{From: pc.PC, To: uint64(in.Imm)}
}

// blockLeaders computes the static basic-block leaders of a decoded
// program: the first instruction, every direct transfer target, and
// every instruction following a control transfer. This is the block
// granularity of the coverage metric and of -cover-goal fractions.
func blockLeaders(prog *vm.Program) map[uint64]bool {
	leaders := make(map[uint64]bool)
	first := ^uint64(0)
	prog.Instrs(func(addr uint64, in isa.Instr, size int) {
		if addr < first {
			first = addr
		}
		op := in.Op
		if op.IsJump() || op == isa.OpCall || op == isa.OpRet || op == isa.OpHalt {
			leaders[addr+uint64(size)] = true
			if in.Mode == isa.ModeI && op != isa.OpRet && op != isa.OpHalt {
				leaders[uint64(in.Imm)] = true
			}
		}
	})
	if first != ^uint64(0) {
		leaders[first] = true
	}
	// Drop leaders past the text end (the successor of a final halt).
	for a := range leaders {
		if _, _, ok := prog.At(a); !ok {
			delete(leaders, a)
		}
	}
	return leaders
}
