package solver

import (
	"math"
	"testing"

	"repro/internal/sym"
)

// BenchmarkAtoiChainSolve measures the canonical digit-chain query: the
// constraint shape every atoi-guarded bomb produces.
func BenchmarkAtoiChainSolve(b *testing.B) {
	b0 := sym.NewZExt(sym.NewVar("b0", 8), 64)
	b1 := sym.NewZExt(sym.NewVar("b1", 8), 64)
	d0 := sym.NewBin(sym.OpSub, b0, sym.NewConst('0', 64))
	d1 := sym.NewBin(sym.OpSub, b1, sym.NewConst('0', 64))
	v := sym.NewBin(sym.OpAdd, sym.NewBin(sym.OpMul, d0, sym.NewConst(10, 64)), d1)
	cs := []sym.Expr{
		sym.NewBin(sym.OpUle, sym.NewConst('0', 64), b0),
		sym.NewBin(sym.OpUle, b0, sym.NewConst('9', 64)),
		sym.NewBin(sym.OpUle, sym.NewConst('0', 64), b1),
		sym.NewBin(sym.OpUle, b1, sym.NewConst('9', 64)),
		sym.NewBin(sym.OpEq, v, sym.NewConst(42, 64)),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Solve(cs, Options{})
		if err != nil || res.Status != StatusSat {
			b.Fatalf("res %v err %v", res.Status, err)
		}
	}
}

// BenchmarkFPLocalSearch measures the stochastic solver on the paper's
// float-bomb condition.
func BenchmarkFPLocalSearch(b *testing.B) {
	x := sym.NewVar("x", 64)
	c1024 := sym.NewConst(math.Float64bits(1024), 64)
	zero := sym.NewConst(math.Float64bits(0), 64)
	cs := []sym.Expr{
		sym.NewBin(sym.OpFEq, sym.NewBin(sym.OpFAdd, c1024, x), c1024),
		sym.NewBin(sym.OpFLt, zero, x),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Solve(cs, Options{FP: FPSearch, RandSeed: int64(i), FPIterations: 500_000})
		if err != nil || res.Status != StatusSat {
			b.Fatalf("res %v err %v", res.Status, err)
		}
	}
}

// BenchmarkFPSearchUnknown measures the local search's per-iteration
// cost on an infeasible fplaunder-shaped system: f2i(i2f(atoi(argv1)) +
// 1.0) == 14 while atoi(argv1) != 13, over a four-byte argument. No
// assignment satisfies it, so every query runs all its iterations.
func BenchmarkFPSearchUnknown(b *testing.B) {
	const iterations = 20_000
	acc := sym.Expr(sym.NewConst(0, 64))
	seed := map[string]uint64{}
	for i := 0; i < 4; i++ {
		name := "argv1[" + string(rune('0'+i)) + "]"
		d := sym.NewBin(sym.OpSub, sym.NewZExt(sym.NewVar(name, 8), 64), sym.NewConst('0', 64))
		acc = sym.NewBin(sym.OpAdd, sym.NewBin(sym.OpMul, acc, sym.NewConst(10, 64)), d)
		seed[name] = '1'
	}
	sum := sym.NewBin(sym.OpFAdd, sym.NewI2F(acc), sym.NewConst(math.Float64bits(1), 64))
	cs := []sym.Expr{
		sym.NewBin(sym.OpEq, sym.NewF2I(sum), sym.NewConst(14, 64)),
		sym.NewBin(sym.OpNe, acc, sym.NewConst(13, 64)),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Solve(cs, Options{FP: FPSearch, RandSeed: int64(i), FPIterations: iterations, Seed: seed})
		if err != nil || res.Status != StatusUnknown {
			b.Fatalf("res %v err %v", res.Status, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*iterations), "ns/iter")
}
