package sat

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
)

// trajectoryHash is the fingerprint of the search over the seeded corpus
// below. Any change to watch-list order, literal swap positions, learned
// clause reduction or branching shows up here as a different verdict,
// model, final conflict or counter. It must only change together with a
// deliberate change to the search itself.
const trajectoryHash = 0x78b88c879f4e49f7

// TestSearchTrajectoryPinned drives seeded random CNFs through
// SolveAssuming calls with growing assumption sets and clauses added
// between calls, and hashes every observable result: status, Stats,
// FinalConflict and the model. The corpus once also chose solver
// configurations, learn hooks and import batches; the random draws for
// those are still made, so the instances and the hash are the ones
// pinned before those were removed.
//
// The corpus runs twice: once on a new solver per instance, and once on
// a single solver that, before each instance, solves an unrelated one
// and is Reset. Both must give the pinned hash, which is what lets the
// fresh solver mode reuse solvers without moving any search.
func TestSearchTrajectoryPinned(t *testing.T) {
	t.Run("new", func(t *testing.T) {
		checkTrajectory(t, func(int64) *Solver { return New() })
	})
	t.Run("reset", func(t *testing.T) {
		s := New()
		checkTrajectory(t, func(seed int64) *Solver {
			// Smaller or larger than the corpus instance, so the Reset
			// leaves buffers both short of and beyond what it needs.
			solveRandom(s, -seed, 20+int(seed*53%280))
			s.Reset()
			return s
		})
	})
}

// checkTrajectory runs the corpus, taking each instance's solver from
// solverFor, and compares the hash with trajectoryHash.
func checkTrajectory(t *testing.T, solverFor func(seed int64) *Solver) {
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
		// Draws that once chose a solver configuration and a learn
		// hook; the corpus below depends on them being made.
		if rng.Intn(3) == 0 {
			rng.Int63()
			rng.Float64()
			rng.Intn(2)
			rng.Intn(150)
			rng.Intn(2)
		}
		rng.Intn(2)
		// Mostly 3-SAT near its threshold, which this solver decides in
		// a few hundred conflicts; one instance in twelve is a small
		// 4-SAT near its threshold, which takes thousands and so drives
		// reduceLearned.
		nVars, k, ratio := 60+rng.Intn(121), 3, 40+rng.Intn(6)
		if rng.Intn(12) == 0 {
			nVars, k, ratio = 60+rng.Intn(21), 4, 96+rng.Intn(7)
		}
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		cnf := randomCNF(rng, nVars, nVars*ratio/10, k)
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		// Distinct assumption variables with random signs; each call
		// assumes a longer prefix.
		perm := rng.Perm(nVars)
		assumptions := make([]Lit, 9)
		for i := range assumptions {
			assumptions[i] = MkLit(perm[i], rng.Intn(2) == 0)
		}
		for call, n := range []int{0, 2, 5, 9} {
			if call == 2 {
				weakenings(rng, cnf, nVars) // the draws of a former import batch
			}
			if call == 3 {
				for _, cl := range randomCNF(rng, nVars, 3, 3) {
					s.AddClause(cl...)
				}
			}
			st := s.SolveAssuming(assumptions[:n], 20_000, time.Time{}, nil)
			put(int64(st))
			stats := s.Stats()
			for _, x := range []int64{stats.Conflicts, stats.Propagations, stats.Restarts,
				stats.Learned, stats.Deleted} {
				put(x)
			}
			for _, l := range s.FinalConflict() {
				put(int64(l))
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
	if got := h.Sum64(); got != trajectoryHash {
		t.Fatalf("search trajectory hash = %#x, want %#x (%d learned clauses deleted)", got, uint64(trajectoryHash), deleted)
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

// weakenings returns clauses the CNF implies: supersets of its clauses,
// some with a duplicate or complementary literal, plus one over a
// variable the solver does not have. The trajectory corpus makes its
// random draws and discards the result.
func weakenings(rng *rand.Rand, cnf [][]Lit, nVars int) [][]Lit {
	out := make([][]Lit, 0, 9)
	for i := 0; i < 8; i++ {
		cl := append([]Lit(nil), cnf[rng.Intn(len(cnf))]...)
		switch rng.Intn(4) {
		case 0:
			cl = append(cl, cl[0])
		case 1:
			cl = append(cl, cl[0].Not())
		default:
			cl = append(cl, MkLit(rng.Intn(nVars), rng.Intn(2) == 0))
		}
		out = append(out, cl)
	}
	return append(out, []Lit{MkLit(nVars+1, false), MkLit(0, true)})
}
