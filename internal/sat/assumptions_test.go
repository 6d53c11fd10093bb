package sat

import (
	"testing"
	"time"
)

// TestSolveAssumingBasics drives one persistent instance through
// contradictory assumption sets and checks the solver survives each
// verdict.
func TestSolveAssumingBasics(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false)) // a | b

	if st := s.SolveAssuming([]Lit{MkLit(a, false)}, 0, time.Time{}, nil); st != Sat {
		t.Fatalf("assume a: %v, want sat", st)
	}
	if !s.Value(a) {
		t.Error("assume a: model has a=false")
	}
	if st := s.SolveAssuming([]Lit{MkLit(a, true), MkLit(b, true)}, 0, time.Time{}, nil); st != Unsat {
		t.Fatalf("assume ~a,~b: %v, want unsat", st)
	}
	if len(s.FinalConflict()) == 0 {
		t.Error("assumption-level unsat without a final conflict")
	}
	// The instance must remain usable after an assumption failure.
	if st := s.SolveAssuming([]Lit{MkLit(b, false)}, 0, time.Time{}, nil); st != Sat {
		t.Fatalf("assume b after failure: %v, want sat", st)
	}
	if !s.Value(b) {
		t.Error("assume b: model has b=false")
	}
}

// TestFinalConflictSubset checks the final conflict names only the
// assumptions actually responsible, not innocent bystanders.
func TestFinalConflictSubset(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, true), MkLit(b, true)) // ~a | ~b
	_ = c

	aT, bT, cT := MkLit(a, false), MkLit(b, false), MkLit(c, false)
	if st := s.SolveAssuming([]Lit{cT, aT, bT}, 0, time.Time{}, nil); st != Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
	fc := s.FinalConflict()
	inConflict := map[Lit]bool{}
	for _, l := range fc {
		inConflict[l] = true
	}
	if inConflict[cT] {
		t.Errorf("final conflict %v blames unrelated assumption c", fc)
	}
	if !inConflict[aT] || !inConflict[bT] {
		t.Errorf("final conflict %v misses a or b", fc)
	}
}

// TestIncrementalClauseAdditionAfterSat asserts clauses can be added
// after a Sat verdict and the model snapshot from the earlier call stays
// readable.
func TestIncrementalClauseAdditionAfterSat(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	if st := s.Solve(0); st != Sat {
		t.Fatalf("initial solve: %v", st)
	}
	va := s.Value(a)
	// Pin both variables to the opposite of a's model value; the
	// instance must accept the clauses and re-solve.
	if !s.AddClause(MkLit(a, va)) {
		t.Fatal("AddClause rejected after Sat")
	}
	if s.Value(a) != va {
		t.Error("model snapshot changed by AddClause")
	}
	if st := s.Solve(0); st != Sat {
		t.Fatalf("re-solve: %v", st)
	}
	if s.Value(a) == va {
		t.Error("unit clause not honored by re-solve")
	}
}

// TestPerCallConflictBudget verifies the conflict budget is charged per
// Solve call on a persistent instance, not cumulatively: a second call
// with the same budget must not start exhausted.
func TestPerCallConflictBudget(t *testing.T) {
	s := New()
	// A small unsatisfiable pigeonhole-ish core that needs a few
	// conflicts: x1..x4 with pairwise exclusions and a covering clause.
	n := 6
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	var cover []Lit
	for i := 0; i < n; i++ {
		cover = append(cover, MkLit(vars[i], false))
		for j := i + 1; j < n; j++ {
			s.AddClause(MkLit(vars[i], true), MkLit(vars[j], true))
		}
	}
	s.AddClause(cover...)
	before := s.Stats().Conflicts
	if st := s.Solve(0); st != Sat {
		t.Fatalf("exactly-one system: %v, want sat", st)
	}
	spent := s.Stats().Conflicts - before
	// Re-solving under assumptions with a budget equal to what the whole
	// search cost must still terminate (budget is per-call).
	if st := s.SolveAssuming([]Lit{MkLit(vars[0], false)}, spent+8, time.Time{}, nil); st != Sat {
		t.Fatalf("per-call budget starved the second call: %v", st)
	}
}

// TestLearnedClausesRetained checks the learned-clause DB and restart
// counters survive across calls on one instance.
func TestLearnedClausesRetained(t *testing.T) {
	s := New()
	n := 8
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	// Parity-ish chain with a contradiction far down forces learning.
	for i := 0; i+1 < n; i++ {
		s.AddClause(MkLit(vars[i], true), MkLit(vars[i+1], false)) // x_i -> x_{i+1}
		s.AddClause(MkLit(vars[i], false), MkLit(vars[i+1], true)) // ~x_i -> ~x_{i+1}
	}
	if st := s.SolveAssuming([]Lit{MkLit(vars[0], false), MkLit(vars[n-1], true)}, 0, time.Time{}, nil); st != Unsat {
		t.Fatalf("chain contradiction: %v, want unsat", st)
	}
	st1 := s.Stats()
	if st := s.SolveAssuming([]Lit{MkLit(vars[0], false)}, 0, time.Time{}, nil); st != Sat {
		t.Fatalf("satisfiable assumption set: %v", st)
	}
	st2 := s.Stats()
	if st2.Restarts < st1.Restarts || st2.Restarts == 0 {
		t.Errorf("restart counter went backwards or never moved: %d -> %d", st1.Restarts, st2.Restarts)
	}
	if st2.Learned < st1.Learned {
		t.Errorf("learned counter went backwards: %d -> %d", st1.Learned, st2.Learned)
	}
	if live := st2.LearnedLive(); live < 0 {
		t.Errorf("negative live learned clauses: %d", live)
	}
}

// addPigeonhole encodes the pigeonhole principle PHP(holes+1, holes):
// holes+1 pigeons into holes holes, unsatisfiable and resolution-hard
// enough to force real clause learning. Returns the variable matrix
// p[i][j] = "pigeon i sits in hole j".
func addPigeonhole(s *Solver, holes int) [][]int {
	pigeons := holes + 1
	p := make([][]int, pigeons)
	for i := range p {
		p[i] = make([]int, holes)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i < pigeons; i++ {
		var c []Lit
		for j := 0; j < holes; j++ {
			c = append(c, MkLit(p[i][j], false))
		}
		s.AddClause(c...)
	}
	for j := 0; j < holes; j++ {
		for i := 0; i < pigeons; i++ {
			for k := i + 1; k < pigeons; k++ {
				s.AddClause(MkLit(p[i][j], true), MkLit(p[k][j], true))
			}
		}
	}
	return p
}

// TestStatsMonotonicSolveAssuming drives one instance through a sequence
// of SolveAssuming calls and checks every Stats counter is cumulative
// and non-decreasing — counters are never reset between calls, so
// callers charge a call by differencing around it.
func TestStatsMonotonicSolveAssuming(t *testing.T) {
	s := New()
	p := addPigeonhole(s, 4)
	prev := s.Stats()
	if prev != (Stats{}) {
		t.Fatalf("fresh instance has nonzero stats: %+v", prev)
	}
	assumptionSets := [][]Lit{
		nil,
		{MkLit(p[0][0], false)},
		{MkLit(p[0][0], false), MkLit(p[1][1], false)},
		nil,
	}
	for i, as := range assumptionSets {
		if st := s.SolveAssuming(as, 200_000, time.Time{}, nil); st != Unsat {
			t.Fatalf("call %d: %v, want unsat", i, st)
		}
		cur := s.Stats()
		if cur.Conflicts < prev.Conflicts || cur.Propagations < prev.Propagations ||
			cur.Restarts < prev.Restarts || cur.Learned < prev.Learned ||
			cur.Deleted < prev.Deleted {
			t.Fatalf("call %d: counter went backwards: %+v -> %+v", i, prev, cur)
		}
		prev = cur
	}
	if prev.Conflicts == 0 || prev.Learned == 0 {
		t.Fatalf("pigeonhole refutation registered no work: %+v", prev)
	}
	// Per-call differencing must see the base-formula refutation charged
	// once: after ok=false the later calls return Unsat without search.
	again := s.Stats()
	s.SolveAssuming(nil, 200_000, time.Time{}, nil)
	if got := s.Stats(); got != again {
		t.Errorf("refuted instance still accrues work: %+v -> %+v", again, got)
	}
}
