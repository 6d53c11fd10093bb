package sat

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
)

// solveTrajectoryHash is the fingerprint of the search over the seeded
// corpus of TestSolveTrajectoryPinned. Any change to watch-list order,
// literal swap positions, learned clause reduction, restarts or
// branching shows up here as a different verdict, model or counter. It
// must only change together with a deliberate change to the search
// itself.
const solveTrajectoryHash = 0xeb19924ed7c9571

// TestSolveTrajectoryPinned drives seeded random CNFs through the solver
// API without assumptions: AddClause, the three Solve entry points,
// Value, Stats and Reset. Each instance is solved four times on one
// solver, first under a small conflict budget, then after unit clauses,
// random clauses and more unit clauses are added, once with an
// interruption probe that fires at the fourth restart. Every observable
// result is hashed: status, Stats and the model.
//
// The corpus runs twice, on a new solver per instance and on a single
// solver that solves an unrelated instance and is Reset before each one.
func TestSolveTrajectoryPinned(t *testing.T) {
	t.Run("new", func(t *testing.T) {
		checkSolveTrajectory(t, func(int64) *Solver { return New() })
	})
	t.Run("reset", func(t *testing.T) {
		s := New()
		checkSolveTrajectory(t, func(seed int64) *Solver {
			solveRandom(s, -seed, 20+int(seed*53%280))
			s.Reset()
			return s
		})
	})
}

// checkSolveTrajectory runs the Solve-only corpus, taking each
// instance's solver from solverFor, and compares the hash with
// solveTrajectoryHash.
func checkSolveTrajectory(t *testing.T, solverFor func(seed int64) *Solver) {
	const instances = 300
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	var deleted int64
	for seed := int64(1); seed <= instances; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := solverFor(seed)
		// Mostly 3-SAT near its threshold; one instance in twelve is a
		// small 4-SAT near its threshold, which drives reduceLearned.
		nVars, k, ratio := 60+rng.Intn(121), 3, 36+rng.Intn(7)
		if rng.Intn(12) == 0 {
			nVars, k, ratio = 60+rng.Intn(21), 4, 90+rng.Intn(7)
		}
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		for _, cl := range randomCNF(rng, nVars, nVars*ratio/10, k) {
			s.AddClause(cl...)
		}
		// Unit clauses over distinct variables with random signs.
		perm := rng.Perm(nVars)
		unit := func(i int) {
			s.AddClause(MkLit(perm[i], rng.Intn(2) == 0))
		}
		for call := 0; call < 4; call++ {
			var st Status
			switch call {
			case 0:
				st = s.Solve(150)
			case 1:
				unit(0)
				unit(1)
				st = s.SolveDeadline(20_000, time.Time{})
			case 2:
				for _, cl := range randomCNF(rng, nVars, 3, 3) {
					s.AddClause(cl...)
				}
				polls := 0
				st = s.SolveInterruptible(20_000, time.Time{}, func() bool { polls++; return polls > 3 })
			case 3:
				unit(2)
				unit(3)
				unit(4)
				st = s.Solve(20_000)
			}
			put(int64(st))
			stats := s.Stats()
			for _, x := range []int64{stats.Conflicts, stats.Propagations, stats.Restarts,
				stats.Learned, stats.Deleted} {
				put(x)
			}
			if st == Sat {
				for v := 0; v < nVars; v++ {
					if s.Value(v) {
						put(int64(v))
					}
				}
			}
		}
		deleted += s.Stats().Deleted
	}
	if deleted == 0 {
		t.Fatal("no learned clause was ever deleted: the corpus does not reach reduceLearned")
	}
	if got := h.Sum64(); got != solveTrajectoryHash {
		t.Fatalf("search trajectory hash = %#x, want %#x (%d learned clauses deleted)", got, uint64(solveTrajectoryHash), deleted)
	}
}

// randomCNF draws n clauses over nVars variables, most of k literals
// and one in ten of k-1 or k+1, so duplicate literals, tautologies and
// binary clauses all occur.
func randomCNF(rng *rand.Rand, nVars, n, k int) [][]Lit {
	cnf := make([][]Lit, n)
	for i := range cnf {
		size := k
		switch rng.Intn(20) {
		case 0:
			size = k - 1
		case 1:
			size = k + 1
		}
		cl := make([]Lit, size)
		for j := range cl {
			cl[j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
		}
		cnf[i] = cl
	}
	return cnf
}
