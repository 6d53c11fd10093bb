package sat

import (
	"math"
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
// stays within twice the live literals, that it was compacted, and that
// every live clause is still watched by exactly its first two literals.
func TestArenaCompaction(t *testing.T) {
	s := New()
	addPigeonhole(s, 8) // PHP(9, 8): unsat, far beyond this test's budget
	var reductions, compactions int
	prevDeleted, prevArena := int64(0), 0
	for call := 0; call < 80 && (reductions < 3 || compactions < 1); call++ {
		if st := s.Solve(1000); st != Unknown {
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
			t.Fatalf("call %d: arena holds %d literals for %d live ones", call, len(s.arena), live)
		}
	}
	if reductions < 3 || compactions < 1 {
		t.Fatalf("%d reductions and %d compactions, want at least 3 and 1", reductions, compactions)
	}
}

// checkClauseDB checks the clause database of a solver at decision level
// 0 and returns the number of live literals: every live clause has its
// own header slot, no freed slot is live, and the watchers are exactly
// one per live clause on each of ~lits[0] and ~lits[1].
func checkClauseDB(t *testing.T, s *Solver) int {
	t.Helper()
	type watch struct {
		c  cref
		on Lit
	}
	want := make(map[watch]int)
	isLive := make(map[cref]bool)
	lits := 0
	for _, c := range append(append([]cref(nil), s.clauses...), s.learned...) {
		if isLive[c] {
			t.Fatalf("cref %d listed twice", c)
		}
		isLive[c] = true
		l := s.lits(c)
		lits += len(l)
		want[watch{c, l[0].Not()}]++
		want[watch{c, l[1].Not()}]++
	}
	if got := len(s.headers) - len(s.freeCrefs); got != len(isLive) {
		t.Fatalf("%d headers in use, %d live clauses", got, len(isLive))
	}
	for _, c := range s.freeCrefs {
		if isLive[c] {
			t.Fatalf("freed cref %d is still live", c)
		}
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
	return lits
}
