package sat_test

import (
	"testing"

	"repro/internal/bitblast"
	"repro/internal/sat"
	"repro/internal/sym"
)

// BenchmarkFreshQuery measures one query the way the fresh solver mode
// answers it: a new SAT instance, the bit-blasted encoding of
// x * 0x9e3779b1 == 0xdeadbeef over 32-bit vectors, and a solve. Clause
// intake dominates; allocs/op shows what each clause costs.
func BenchmarkFreshQuery(b *testing.B) {
	b.ReportAllocs()
	x := sym.NewVar("x", 32)
	c := sym.NewBin(sym.OpEq,
		sym.NewBin(sym.OpMul, x, sym.NewConst(0x9e3779b1, 32)),
		sym.NewConst(0xdeadbeef, 32))
	for i := 0; i < b.N; i++ {
		s := sat.New()
		if err := bitblast.New(s).Assert(c); err != nil {
			b.Fatal(err)
		}
		if st := s.Solve(0); st != sat.Sat {
			b.Fatalf("status %v", st)
		}
	}
}
