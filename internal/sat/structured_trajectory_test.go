package sat_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/bitblast"
	"repro/internal/sat"
	"repro/internal/sym"
)

// structuredTrajectoryHash is the fingerprint of the search over the
// bit-blasted queries of TestStructuredTrajectoryPinned. Like
// solveTrajectoryHash it must only change together with a deliberate
// change to the search, or to the bit-blaster's circuits.
const structuredTrajectoryHash = 0xc6d5343a3d632f1f

// structuredQuery is one bit-blasted query of the structured corpus.
type structuredQuery struct {
	name   string
	build  func() []sym.Expr
	budget int64 // conflict budget; 0 means none
	want   sat.Status
}

// factorQuery is the path condition of the factoring bombs: the two
// factors are argv bytes 0-1 and 2-3, little-endian, every byte is
// non-zero (strlen(argv[1]) == 4), and their 64-bit product is n.
func factorQuery(n uint64) []sym.Expr {
	b := make([]sym.Expr, 4)
	var cs []sym.Expr
	for i := range b {
		b[i] = sym.NewVar(fmt.Sprintf("argv1[%d]", i), 8)
		cs = append(cs, sym.NewBin(sym.OpNe, b[i], sym.NewConst(0, 8)))
	}
	word := func(lo, hi sym.Expr) sym.Expr {
		return sym.NewBin(sym.OpOr, sym.NewZExt(lo, 64),
			sym.NewBin(sym.OpShl, sym.NewZExt(hi, 64), sym.NewConst(8, 64)))
	}
	prod := sym.NewBin(sym.OpMul, word(b[0], b[1]), word(b[2], b[3]))
	return append(cs, sym.NewBin(sym.OpEq, prod, sym.NewConst(n, 64)))
}

// structuredCorpus lists the queries: factoring semiprimes of 9- to
// 12-bit prime factors, whose models are the factor pairs; the product
// of two 8-bit primes, unsat because a factor with two non-zero bytes
// is at least 257; a solver-ladder semiprime of two 15-bit primes
// stopped by a 6,000-conflict budget, which reduces the learned
// clauses and compacts the arena mid-search; and the 32-bit multiply
// x * 0x9e3779b1 == 0xdeadbeef.
func structuredCorpus() []structuredQuery {
	factor := func(p, q uint64, budget int64, want sat.Status) structuredQuery {
		return structuredQuery{
			name:   fmt.Sprintf("factor%dx%d", p, q),
			build:  func() []sym.Expr { return factorQuery(p * q) },
			budget: budget,
			want:   want,
		}
	}
	return []structuredQuery{
		factor(251, 241, 0, sat.Unsat),
		factor(509, 263, 0, sat.Sat),
		factor(787, 1019, 0, sat.Sat),
		factor(1543, 1297, 0, sat.Sat),
		factor(3167, 3061, 0, sat.Sat),
		factor(2339, 3847, 0, sat.Sat),
		factor(23357, 28219, 6000, sat.Unknown),
		{
			name: "mulconst32",
			build: func() []sym.Expr {
				x := sym.NewVar("x", 32)
				return []sym.Expr{sym.NewBin(sym.OpEq,
					sym.NewBin(sym.OpMul, x, sym.NewConst(0x9e3779b1, 32)),
					sym.NewConst(0xdeadbeef, 32))}
			},
			want: sat.Sat,
		},
	}
}

// TestStructuredTrajectoryPinned pins the search on bit-blasted
// queries, whose clauses are the adder, multiplier and equality
// circuits the engine's queries produce rather than random k-SAT. Each
// query is encoded and solved once; the status, every Stats counter and
// the value of every SAT variable of a Sat model are hashed. The corpus
// runs on a new solver per query and on one solver Reset before each.
func TestStructuredTrajectoryPinned(t *testing.T) {
	t.Run("new", func(t *testing.T) {
		checkStructuredTrajectory(t, func() *sat.Solver { return sat.New() })
	})
	t.Run("reset", func(t *testing.T) {
		s := sat.New()
		checkStructuredTrajectory(t, func() *sat.Solver { s.Reset(); return s })
	})
}

func checkStructuredTrajectory(t *testing.T, solver func() *sat.Solver) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	var deleted int64
	for _, q := range structuredCorpus() {
		s := solver()
		enc := bitblast.New(s)
		for _, c := range q.build() {
			if err := enc.Assert(c); err != nil {
				t.Fatalf("%s: %v", q.name, err)
			}
		}
		st := s.Solve(q.budget)
		if st != q.want {
			t.Fatalf("%s: %v, want %v", q.name, st, q.want)
		}
		put(int64(st))
		stats := s.Stats()
		for _, x := range []int64{stats.Conflicts, stats.Propagations, stats.Restarts,
			stats.Learned, stats.Deleted} {
			put(x)
		}
		if st == sat.Sat {
			for v := 0; v < s.NumVars(); v++ {
				if s.Value(v) {
					put(int64(v))
				}
			}
		}
		deleted += stats.Deleted
	}
	if deleted == 0 {
		t.Fatal("no learned clause was ever deleted: the corpus does not reach reduceLearned")
	}
	if got := h.Sum64(); got != structuredTrajectoryHash {
		t.Fatalf("structured trajectory hash = %#x, want %#x (%d learned clauses deleted)", got, uint64(structuredTrajectoryHash), deleted)
	}
}
