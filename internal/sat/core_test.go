package sat

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestStampWrap forces the clause-intake stamp counter through its wrap
// and checks that stale stamps from before the wrap neither hide a
// clause as a tautology nor drop a literal as a duplicate.
func TestStampWrap(t *testing.T) {
	for _, gen := range []uint32{math.MaxUint32 - 1, math.MaxUint32} {
		s := New()
		a, b, c := MkLit(s.NewVar(), false), MkLit(s.NewVar(), false), MkLit(s.NewVar(), false)
		s.AddClause(a, b) // stamps a and b with generation 1
		s.stampGen = gen
		s.AddClause(b, c) // generation MaxUint32 when gen is MaxUint32-1
		// The counter has wrapped by now: ~a must not clash with a's
		// stale stamp, and the duplicate c must still be dropped.
		if !s.AddClause(a.Not(), c, c) {
			t.Fatalf("gen %#x: clause reported unsat", gen)
		}
		if got := s.NumClauses(); got != 3 {
			t.Fatalf("gen %#x: %d problem clauses, want 3 (~a|c taken for a tautology?)", gen, got)
		}
		if got := s.lits(s.clauses[2]); !slices.Equal(got, []Lit{a.Not(), c}) {
			t.Errorf("gen %#x: stored %v, want [~a c]", gen, got)
		}
		if s.stampGen == 0 || s.stampGen > 3 {
			t.Errorf("gen %#x: stamp counter %d after the wrap", gen, s.stampGen)
		}
		// A real tautology after the wrap is still recognised.
		s.AddClause(b, b.Not())
		if got := s.NumClauses(); got != 3 {
			t.Errorf("gen %#x: tautology b|~b stored", gen)
		}
		// a, ~a|c and ~c|~b: b must be false.
		s.AddClause(c.Not(), b.Not())
		s.AddClause(a)
		if st := s.Solve(0); st != Sat || !s.Value(c.Var()) || s.Value(b.Var()) {
			t.Errorf("gen %#x: solve with a = %v, c=%v b=%v; want sat, c true, b false",
				gen, st, s.Value(c.Var()), s.Value(b.Var()))
		}
	}
}

// TestArenaCompaction drives one persistent instance through several
// learned-clause reductions and checks after every call that the arena
// stays within twice the live words, that it was compacted, and that
// every live clause is still watched by exactly its first two literals.
func TestArenaCompaction(t *testing.T) {
	s := New()
	addPigeonhole(s, 8) // PHP(9, 8): unsat, far beyond this test's budget
	var reductions, compactions int
	prevDeleted, prevArena := int64(0), 0
	for call := 0; call < 80 && (reductions < 3 || compactions < 1); call++ {
		if st := s.Solve(2000); st != Unknown {
			t.Fatalf("call %d: %v, want unknown", call, st)
		}
		if d := s.Stats().Deleted; d > prevDeleted {
			reductions++
			prevDeleted = d
		}
		if len(s.arena) < prevArena {
			compactions++
		}
		prevArena = len(s.arena)
		live := checkClauseDB(t, s)
		if len(s.arena) > 2*live {
			t.Fatalf("call %d: arena holds %d words for %d live ones", call, len(s.arena), live)
		}
	}
	if reductions < 3 || compactions < 1 {
		t.Fatalf("%d reductions and %d compactions, want at least 3 and 1", reductions, compactions)
	}
}

// TestCompactMidSearch forces a compaction at a nonzero decision level,
// where assigned variables hold reasons that name moved clauses. Two
// twin instances solve once under a small budget, which leaves learned
// clauses in the arena, and then take more problem clauses, which land
// after them: a compaction moves the learned clauses behind the new
// problem clauses. The twins run the same search one conflict at a time
// until four assigned variables have a reason learned in the first
// solve; then only the first compacts, above level 0. Every reason on
// its trail must name a clause whose first literal is the variable's
// true literal, and both twins must go on to the same trail, counters
// and verdict.
func TestCompactMidSearch(t *testing.T) {
	const nVars = 400
	rng := rand.New(rand.NewSource(1))
	cnf, more := randomCNF(rng, nVars, nVars*42/10, 3), randomCNF(rng, nVars, 40, 3)
	var twins [2]*Solver
	var oldEnd cref // the arena's end before the second batch of problem clauses
	for i := range twins {
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		if st := s.Solve(2000); st != Unknown {
			t.Fatalf("first solve %v, want unknown", st)
		}
		oldEnd = cref(len(s.arena))
		for _, cl := range more {
			s.AddClause(cl...)
		}
		twins[i] = s
	}
	a, b := twins[0], twins[1]
	step := func(budget int64) {
		for _, s := range twins {
			if st := s.search(budget, math.MaxInt64); st != Unknown {
				t.Fatalf("search %v, want unknown", st)
			}
		}
	}
	// Step on until four assigned variables have as reason a clause
	// learned in the first solve: those clauses move.
	for moving := 0; moving < 4; {
		step(1)
		moving = 0
		for _, l := range a.trail {
			if r := a.reason[l.Var()]; r != crefUndef && r >= a.learned[0].c && r < oldEnd {
				moving++
			}
		}
	}
	before := append([]cref(nil), a.reason...)
	a.compact()
	moved := 0
	for _, l := range a.trail {
		v := l.Var()
		r := a.reason[v]
		if r == crefUndef {
			continue
		}
		if r != before[v] {
			moved++
		}
		if !isClause(a, r) {
			t.Fatalf("level %d: reason %d of variable %d is not a clause of the %d-word arena",
				a.level[v], r, v, len(a.arena))
		}
		if first := a.lits(r)[0]; first != l {
			t.Fatalf("level %d: reason of %d starts with %d, want %d", a.level[v], v, first, l)
		}
	}
	if moved == 0 || a.decisionLevel() == 0 {
		t.Fatalf("compaction at level %d moved %d reasons; the test needs both nonzero", a.decisionLevel(), moved)
	}
	checkClauseDB(t, a)

	step(500)
	if !slices.Equal(a.trail, b.trail) || a.Stats() != b.Stats() {
		t.Fatalf("after compaction the search moved: stats %+v, twin %+v", a.Stats(), b.Stats())
	}
	for _, s := range twins {
		s.backtrack(0)
	}
	sa, sb := a.Solve(2000), b.Solve(2000)
	if sa != sb || a.Stats() != b.Stats() {
		t.Fatalf("compacted twin ends %v %+v, uncompacted %v %+v", sa, a.Stats(), sb, b.Stats())
	}
	checkClauseDB(t, a)
}

// checkClauseDB checks the clause database of a solver and returns the
// number of live arena words. Every listed cref is the size word of a
// clause inside the arena and is listed once, no two clauses overlap,
// and the watchers are exactly one per live clause on each of ~lits[0]
// and ~lits[1].
func checkClauseDB(t *testing.T, s *Solver) int {
	t.Helper()
	type watch struct {
		c  cref
		on Lit
	}
	want := make(map[watch]int)
	live := append([]cref(nil), s.clauses...)
	for _, l := range s.learned {
		live = append(live, l.c)
	}
	slices.Sort(live)
	words, end := 0, 0
	for _, c := range live {
		if int(c) < end {
			t.Fatalf("cref %d lies inside the clause before it, which ends at %d", c, end)
		}
		if !isClause(s, c) {
			t.Fatalf("cref %d is not a clause of the %d-word arena", c, len(s.arena))
		}
		l := s.lits(c)
		end = int(c) + 1 + len(l)
		words += 1 + len(l)
		want[watch{c, l[0].Not()}]++
		want[watch{c, l[1].Not()}]++
	}
	for l, ws := range s.watches {
		for _, w := range ws {
			k := watch{w.cref, Lit(l)}
			if want[k] == 0 {
				t.Fatalf("stray watcher of cref %d on literal %d", w.cref, l)
			}
			want[k]--
		}
	}
	for k, n := range want {
		if n != 0 {
			t.Fatalf("cref %d lacks its watcher on literal %d", k.c, k.on)
		}
	}
	return words
}

// isClause reports whether c is the size word of a clause of at least
// two literals that ends inside the arena.
func isClause(s *Solver, c cref) bool {
	return int(c) < len(s.arena) && s.arena[c] >= 2 && int(c)+1+int(s.arena[c]) <= len(s.arena)
}
