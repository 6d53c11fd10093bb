package sat

import "testing"

// Tests of one persistent instance solved more than once.

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
	// Re-solving with a unit clause added and a budget equal to what the
	// whole search cost must still terminate (budget is per-call).
	s.AddClause(MkLit(vars[0], false))
	if st := s.Solve(spent + 8); st != Sat {
		t.Fatalf("per-call budget starved the second call: %v", st)
	}
}

// TestLearnedClausesRetained checks the learned-clause DB and restart
// counters survive across calls on one instance: a budget-bound call on
// a pigeonhole instance learns clauses, and a follow-up call on the same
// instance finishes the refutation without losing them.
func TestLearnedClausesRetained(t *testing.T) {
	s := New()
	addPigeonhole(s, 6)
	if st := s.Solve(100); st != Unknown {
		t.Fatalf("PHP(7, 6) in 100 conflicts: %v, want unknown", st)
	}
	st1 := s.Stats()
	if st1.LearnedLive() == 0 {
		t.Fatal("budget-bound call learned nothing")
	}
	if st := s.Solve(0); st != Unsat {
		t.Fatalf("PHP(7, 6): %v, want unsat", st)
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

// TestStatsMonotonic drives one instance through a sequence of Solve
// calls, with unit clauses added between them, and checks every Stats
// counter is cumulative and non-decreasing — counters are never reset
// between calls, so callers charge a call by differencing around it.
func TestStatsMonotonic(t *testing.T) {
	s := New()
	p := addPigeonhole(s, 4)
	prev := s.Stats()
	if prev != (Stats{}) {
		t.Fatalf("fresh instance has nonzero stats: %+v", prev)
	}
	for i, units := range [][]Lit{nil, {MkLit(p[0][0], false)}, {MkLit(p[1][1], false)}, nil} {
		for _, l := range units {
			s.AddClause(l)
		}
		if st := s.Solve(200_000); st != Unsat {
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
	s.Solve(200_000)
	if got := s.Stats(); got != again {
		t.Errorf("refuted instance still accrues work: %+v -> %+v", again, got)
	}
}
