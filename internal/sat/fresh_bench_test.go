package sat_test

import (
	"testing"

	"repro/internal/bitblast"
	"repro/internal/sat"
	"repro/internal/sym"
)

// BenchmarkFreshQuery measures one query the way the solver package
// answers a cache miss: the bit-blasted encoding of
// x * 0x9e3779b1 == 0xdeadbeef over 32-bit vectors and a solve. "new"
// takes a new SAT instance per query, so clause intake dominates and
// allocs/op shows what each clause costs; "reset" reuses one instance
// through Reset, as each solver.Cache does with its idle solvers, and
// allocates only for the encoder.
func BenchmarkFreshQuery(b *testing.B) {
	x := sym.NewVar("x", 32)
	c := sym.NewBin(sym.OpEq,
		sym.NewBin(sym.OpMul, x, sym.NewConst(0x9e3779b1, 32)),
		sym.NewConst(0xdeadbeef, 32))
	query := func(b *testing.B, s *sat.Solver) {
		if err := bitblast.New(s).Assert(c); err != nil {
			b.Fatal(err)
		}
		if st := s.Solve(0); st != sat.Sat {
			b.Fatalf("status %v", st)
		}
	}
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			query(b, sat.New())
		}
	})
	b.Run("reset", func(b *testing.B) {
		b.ReportAllocs()
		s := sat.New()
		for i := 0; i < b.N; i++ {
			s.Reset()
			query(b, s)
		}
	})
}

// BenchmarkFactorQuery measures one solver-ladder-shaped query: the
// path condition of a factoring bomb over a semiprime of two 16-bit
// primes (41651 x 63839), bit-blasted into a new solver and solved.
// Unlike BenchmarkFreshQuery it is search-bound: a few thousand
// conflicts over the 64-bit multiplier's clauses.
func BenchmarkFactorQuery(b *testing.B) {
	query := factorQuery(41651 * 63839)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sat.New()
		enc := bitblast.New(s)
		for _, c := range query {
			if err := enc.Assert(c); err != nil {
				b.Fatal(err)
			}
		}
		if st := s.Solve(0); st != sat.Sat {
			b.Fatalf("status %v", st)
		}
	}
}
