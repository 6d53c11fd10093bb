package sat

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// FuzzSolveAssumingBruteForce decodes a CNF over at most 10 variables
// and up to three rounds of assumptions, solves each round on one
// persistent instance and checks every verdict by enumeration: a Sat
// model satisfies every clause and assumption, an Unsat agrees with brute
// force, and the final conflict is a subset of the assumptions that is
// unsatisfiable together with the CNF.
func FuzzSolveAssumingBruteForce(f *testing.F) {
	f.Add([]byte{3, 4, 2, 0, 3, 2, 1, 4, 1, 2, 1, 5, 2, 2, 0, 1, 0})
	f.Add([]byte{9, 12, 3, 0, 2, 5, 3, 1, 6, 9, 2, 7, 10, 3, 4, 12, 16, 1, 3, 3, 2, 8, 14, 2, 1, 2, 3, 2, 4, 1, 17, 2, 9, 11})
	f.Add([]byte{5, 6, 1, 0, 1, 1, 2, 2, 3, 2, 2, 4, 5, 0, 3, 2, 1, 3, 2, 0, 8, 2, 2, 4, 2, 6, 8, 1, 2, 3, 0, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		nVars := 1 + next()%10
		lit := func() Lit { b := next(); return MkLit((b>>1)%nVars, b&1 == 1) }
		clause := func(maxLen int) []Lit {
			cl := make([]Lit, next()%(maxLen+1))
			for i := range cl {
				cl[i] = lit()
			}
			return cl
		}

		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		var cnf [][]Lit
		for n := next() % 24; n > 0; n-- {
			cl := clause(4)
			cnf = append(cnf, cl)
			s.AddClause(cl...)
		}
		for round := 1 + next()%3; round > 0; round-- {
			assumptions := clause(5)
			st := s.SolveAssuming(assumptions, 0, time.Time{}, nil)
			withAssumptions := append(slices.Clone(cnf), units(assumptions)...)
			switch st {
			case Sat:
				for _, cl := range withAssumptions {
					if !slices.ContainsFunc(cl, func(l Lit) bool { return s.Value(l.Var()) != l.Neg() }) {
						t.Fatalf("model violates %v (cnf %v, assumptions %v)", cl, cnf, assumptions)
					}
				}
			case Unsat:
				if brute(nVars, withAssumptions) {
					t.Fatalf("unsat, but cnf %v is sat under %v", cnf, assumptions)
				}
				fc := s.FinalConflict()
				for _, l := range fc {
					if !slices.Contains(assumptions, l) {
						t.Fatalf("final conflict %v names %v, not among assumptions %v", fc, l, assumptions)
					}
				}
				if brute(nVars, append(slices.Clone(cnf), units(fc)...)) {
					t.Fatalf("final conflict %v is sat with cnf %v", fc, cnf)
				}
			default:
				t.Fatalf("verdict %v without a budget", st)
			}
		}
	})
}

// units returns one unit clause per literal.
func units(lits []Lit) [][]Lit {
	out := make([][]Lit, len(lits))
	for i, l := range lits {
		out[i] = []Lit{l}
	}
	return out
}

// FuzzResetEquivalence solves a random CNF A, Resets the solver, solves
// a random CNF B on it and compares the result with a new solver's on B:
// verdict, every counter, final conflict and model must be identical.
// Each CNF is 3-SAT near its threshold over up to 100 variables, drawn
// from a seed, and is solved under a few random assumptions.
func FuzzResetEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(40), int64(2), uint8(60))
	f.Add(int64(7), uint8(90), int64(3), uint8(10))
	f.Add(int64(-5), uint8(0), int64(11), uint8(99))
	f.Fuzz(func(t *testing.T, seedA int64, sizeA uint8, seedB int64, sizeB uint8) {
		nVars := 1 + int(sizeB)%100
		reused := New()
		solveRandom(reused, seedA, 1+int(sizeA)%100)
		reused.Reset()
		stReused := solveRandom(reused, seedB, nVars)
		fresh := New()
		stFresh := solveRandom(fresh, seedB, nVars)
		if stReused != stFresh || reused.Stats() != fresh.Stats() {
			t.Fatalf("after Reset: %v %+v, new solver: %v %+v", stReused, reused.Stats(), stFresh, fresh.Stats())
		}
		if !slices.Equal(reused.FinalConflict(), fresh.FinalConflict()) {
			t.Fatalf("final conflict after Reset %v, new solver %v", reused.FinalConflict(), fresh.FinalConflict())
		}
		for v := 0; v < nVars; v++ {
			if reused.Value(v) != fresh.Value(v) {
				t.Fatalf("model differs at variable %d", v)
			}
		}
	})
}

// solveRandom loads a 3-SAT instance over nVars variables near its
// threshold, drawn from seed, into s and solves it under up to three
// assumptions, leaving learned clauses, activities, phases and a model
// or a final conflict behind.
func solveRandom(s *Solver, seed int64, nVars int) Status {
	rng := rand.New(rand.NewSource(seed))
	for v := 0; v < nVars; v++ {
		s.NewVar()
	}
	for _, cl := range randomCNF(rng, nVars, nVars*(38+rng.Intn(10))/10, 3) {
		s.AddClause(cl...)
	}
	assumptions := make([]Lit, rng.Intn(4))
	for i := range assumptions {
		assumptions[i] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
	}
	return s.SolveAssuming(assumptions, 20_000, time.Time{}, nil)
}
