package solver

import (
	"context"
	"testing"

	"repro/internal/sym"
)

// benchChain is a wider digit chain for benchmarking: 64-bit mul/add
// terms deep enough that re-bitblasting the shared prefix dominates a
// fresh solve, as in real rounds over parsed-input guards.
func benchChain(n int) []sym.Expr {
	var acc sym.Expr = sym.NewVar("argv1_0", 64)
	var cs []sym.Expr
	for i := 0; i < n; i++ {
		acc = sym.NewBin(sym.OpAdd,
			sym.NewBin(sym.OpMul, acc, sym.NewConst(0x9e3779b97f4a7c15, 64)),
			sym.NewConst(uint64(i)*0x5851f42d4c957f2d+1, 64))
		b := sym.NewBin(sym.OpAnd, acc, sym.NewConst(0xffff, 64))
		cs = append(cs, sym.NewBin(sym.OpUlt, b, sym.NewConst(0x8000, 64)))
	}
	return cs
}

const benchRoundQueries = 6

// BenchmarkRoundFresh measures the engine's round loop, which solves
// every negation query on its own: query i re-encodes and re-solves the
// whole i-constraint prefix from scratch.
func BenchmarkRoundFresh(b *testing.B) {
	cs := benchChain(benchRoundQueries)
	opts := Options{MaxConflicts: 1_000_000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j, c := range cs {
			system := append(append([]sym.Expr{}, cs[:j]...), sym.NewBoolNot(c))
			r, err := SolveContext(context.Background(), system, opts)
			if err != nil {
				b.Fatal(err)
			}
			if r.Status == StatusUnknown {
				b.Fatalf("query %d unknown", j)
			}
		}
	}
	b.ReportMetric(float64(b.N*benchRoundQueries)/b.Elapsed().Seconds(), "queries/s")
}
