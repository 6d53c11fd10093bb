package sat

import "math/rand"

// Config diversifies a solver instance for portfolio solving. The zero
// value reproduces the default (deterministic) configuration exactly, so
// existing call sites are unaffected. Configure before adding variables:
// InvertPolarity seeds the saved phase of variables allocated afterwards.
type Config struct {
	// RandSeed seeds the random-branching source. Only consulted when
	// RandomBranchFreq > 0.
	RandSeed int64
	// RandomBranchFreq is the probability (0..1) that a decision picks a
	// uniformly random unassigned variable instead of the VSIDS top.
	RandomBranchFreq float64
	// RestartGeometric switches from Luby restarts to a geometric series
	// (base * 1.5^k), which favours long runs on hard single instances.
	RestartGeometric bool
	// RestartBase scales the first restart budget in conflicts
	// (default 100).
	RestartBase int64
	// InvertPolarity makes fresh variables branch true-first instead of
	// false-first, exploring the search tree mirror-imaged.
	InvertPolarity bool
}

// Configure applies a diversification config. Call it on a fresh solver,
// before NewVar / AddClause.
func (s *Solver) Configure(cfg Config) {
	s.cfg = cfg
	if cfg.RandomBranchFreq > 0 {
		s.rng = rand.New(rand.NewSource(cfg.RandSeed))
	}
}

// SetLearnHook installs a callback invoked for every clause learned by
// conflict analysis, with the clause literals (caller-owned copy) and its
// LBD (literal block distance: the number of distinct decision levels
// among the literals, a standard quality measure — lower is better). The
// hook runs on the solver's goroutine; it must not call back into the
// solver. A nil hook disables export.
func (s *Solver) SetLearnHook(hook func(lits []Lit, lbd int)) {
	s.learnHook = hook
}

// ImportLearned queues clauses learned elsewhere for adoption. The
// clauses must be over this solver's variable numbering and implied by
// its formula (true for clauses exchanged between solvers encoding the
// identical constraint system, since bitblasting is deterministic). The
// queue drains at the next restart boundary, when the trail is at level
// 0 and watching new clauses is sound. Slices are copied; the caller may
// reuse them.
//
// ImportLearned itself is not goroutine-safe: call it from the solver's
// goroutine (e.g. inside the SolveInterruptible probe, which runs at
// level 0).
func (s *Solver) ImportLearned(clauses [][]Lit) {
	for _, lits := range clauses {
		s.importQ = append(s.importQ, lits...)
		s.importEnd = append(s.importEnd, len(s.importQ))
	}
}

// drainImports adopts every queued import, or those before the first
// that makes the formula unsatisfiable. Called only at decision level 0.
func (s *Solver) drainImports() {
	start := 0
	for _, end := range s.importEnd {
		if !s.adoptClause(s.importQ[start:end]) {
			break
		}
		start = end
	}
	s.importQ = s.importQ[:0]
	s.importEnd = s.importEnd[:0]
}

// adoptClause installs one imported clause at level 0, simplifying
// against the root-level assignment the same way AddClause does. The
// clause joins the learned database (subject to reduction). Returns
// false when the formula became unsatisfiable.
func (s *Solver) adoptClause(lits []Lit) bool {
	if !s.ok {
		return false
	}
	for _, l := range lits {
		if l < 0 || l.Var() >= s.NumVars() {
			return true // foreign variable: drop the clause
		}
	}
	out, drop := s.simplify(lits)
	if drop {
		return true
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if s.vals[out[0]] == lFalse {
			s.ok = false
			return false
		}
		s.importedN++
		if s.vals[out[0]] == lTrue {
			return true
		}
		s.enqueue(out[0], crefUndef)
		if s.propagate() != crefUndef {
			s.ok = false
			return false
		}
		return true
	}
	c := s.newClause(out, s.clauseInc)
	s.learned = append(s.learned, c)
	s.importedN++
	s.watch(c)
	return true
}

// exportLearned reports a freshly learned clause to the learn hook.
// Called during conflict analysis, before backtracking, while literal
// levels are still valid for the LBD computation.
func (s *Solver) exportLearned(lits []Lit) {
	if s.learnHook == nil {
		return
	}
	s.lbdStamp++
	lbd := 0
	for _, l := range lits {
		lv := int(s.level[l.Var()])
		for len(s.lbdSeen) <= lv {
			s.lbdSeen = append(s.lbdSeen, 0)
		}
		if s.lbdSeen[lv] != s.lbdStamp {
			s.lbdSeen[lv] = s.lbdStamp
			lbd++
		}
	}
	s.exportedN++
	// Each call gets its own copy, carved from a shared chunk so export
	// allocates once per hookChunk literals rather than once per clause.
	if cap(s.hookBuf)-len(s.hookBuf) < len(lits) {
		s.hookBuf = make([]Lit, 0, max(hookChunk, len(lits)))
	}
	n := len(s.hookBuf)
	s.hookBuf = append(s.hookBuf, lits...)
	s.learnHook(s.hookBuf[n:len(s.hookBuf):len(s.hookBuf)], lbd)
}

// hookChunk is the size, in literals, of the chunks learn-hook copies
// are carved from.
const hookChunk = 4096

// restartBudget returns the conflict budget for the i-th restart (1-based)
// under the configured restart policy.
func (s *Solver) restartBudget(i int64) int64 {
	base := s.cfg.RestartBase
	if base <= 0 {
		base = 100
	}
	if !s.cfg.RestartGeometric {
		return base * luby(i)
	}
	b := base
	for k := int64(1); k < i && b < 1<<40; k++ {
		b += b / 2 // geometric with ratio 1.5
	}
	return b
}
