package bitblast

import (
	"testing"

	"repro/internal/sat"
	"repro/internal/sym"
)

// BenchmarkMul64Solve measures solving x*10 == 420 over 64-bit vectors —
// the hot shape behind atoi-style path constraints.
func BenchmarkMul64Solve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sat.New()
		e := New(s)
		x := sym.NewVar("x", 64)
		c := sym.NewBin(sym.OpEq,
			sym.NewBin(sym.OpMul, x, sym.NewConst(10, 64)),
			sym.NewConst(420, 64))
		if err := e.Assert(c); err != nil {
			b.Fatal(err)
		}
		if st := s.Solve(0); st != sat.Sat {
			b.Fatalf("status %v", st)
		}
	}
}

// BenchmarkDividerEncode measures the restoring-divider circuit build
// (a symbolic divisor).
func BenchmarkDividerEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sat.New()
		e := New(s)
		x := sym.NewVar("x", 64)
		y := sym.NewVar("y", 64)
		c := sym.NewBin(sym.OpEq,
			sym.NewBin(sym.OpUDiv, x, y),
			sym.NewConst(7, 64))
		if err := e.Assert(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemConst64Solve measures encoding and solving x % 97 == 13
// over 64-bit vectors, the getpid bomb's one query: a remainder by a
// constant, encoded as multiply-and-check. Gate count is reported.
func BenchmarkRemConst64Solve(b *testing.B) {
	var gates int
	for i := 0; i < b.N; i++ {
		s := sat.New()
		e := New(s)
		if err := e.Assert(remConst64(97, 13)); err != nil {
			b.Fatal(err)
		}
		if st := s.Solve(0); st != sat.Sat {
			b.Fatalf("status %v", st)
		}
		gates = e.Gates()
	}
	b.ReportMetric(float64(gates), "gates")
}

// BenchmarkBitblastSharedDAG encodes a squaring chain — 12 levels of
// d = d*d + c, a tree with 2^12 multiplier leaves that is ~36 distinct
// DAG nodes. With hash-consed pointers the per-node CNF cache hits on
// every reuse and the circuit stays linear in levels (~36k gates);
// without structural sharing each level's operands are fresh pointers
// and the encoder re-blasts subterms until the 4M gate budget trips.
// Gate count is reported so regressions in sharing show up directly.
func BenchmarkBitblastSharedDAG(b *testing.B) {
	var gates int
	for i := 0; i < b.N; i++ {
		s := sat.New()
		e := New(s)
		x := sym.NewVar("x", 32)
		d := sym.NewBin(sym.OpXor, x, sym.NewConst(0x9e3779b9, 32))
		for k := 0; k < 12; k++ {
			sq := sym.NewBin(sym.OpMul, d, d)
			d = sym.NewBin(sym.OpAdd, sq, sym.NewConst(uint64(k)*0x85ebca6b+1, 32))
		}
		if err := e.Assert(sym.NewBin(sym.OpNe, d, sym.NewConst(0, 32))); err != nil {
			b.Fatal(err)
		}
		gates = e.Gates()
	}
	b.ReportMetric(float64(gates), "gates")
}
