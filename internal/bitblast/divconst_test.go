package bitblast

import (
	"testing"

	"repro/internal/sat"
	"repro/internal/sym"
)

var divOps = []sym.BinOp{sym.OpUDiv, sym.OpURem, sym.OpSDiv, sym.OpSRem}

// TestDivConstExhaustive8 checks every 8-bit division by a constant
// (all four operators, every dividend and every divisor, among them 0,
// 1, -1, the powers of two and MinInt8). It asserts op(x, k) == y and
// enumerates the solutions over x and y with blocking clauses: there
// must be exactly one per x, and its y must be sym.Eval's value. So
// y = Eval is Sat and every other y is Unsat, for every x.
func TestDivConstExhaustive8(t *testing.T) {
	for _, op := range divOps {
		t.Run(op.String(), func(t *testing.T) {
			t.Parallel()
			for k := 0; k < 256; k++ {
				s := sat.New()
				e := New(s)
				x, y := sym.NewVar("x", 8), sym.NewVar("y", 8)
				div := sym.NewBin(op, x, sym.NewConst(uint64(k), 8))
				if err := e.Assert(sym.NewBin(sym.OpEq, div, y)); err != nil {
					t.Fatal(err)
				}
				vars := append(append([]int(nil), e.VarBits("x", 8)...), e.VarBits("y", 8)...)
				var seen [256]bool
				n := 0
				for ; s.Solve(0) == sat.Sat; n++ {
					m := e.Model()
					if want := sym.Eval(div, m); m["y"] != want || seen[m["x"]] {
						t.Fatalf("by %d: solution x=%d y=%d (Eval %d, x seen before %v)",
							k, m["x"], m["y"], want, seen[m["x"]])
					}
					seen[m["x"]] = true
					block := make([]sat.Lit, len(vars))
					for i, v := range vars {
						block[i] = sat.MkLit(v, s.Value(v))
					}
					s.AddClause(block...)
				}
				if n != 256 {
					t.Fatalf("by %d: %d solutions, want one per dividend", k, n)
				}
			}
		})
	}
}

// TestDivSymbolicExhaustive8 is TestDivConstExhaustive8 through the
// restoring divider: the divisor is a variable z pinned to each 8-bit
// value (0 included) by a separate z == k constraint, so the circuit
// cannot see it is constant. For every x there must be exactly one
// solution, and its y must be sym.Eval's value.
func TestDivSymbolicExhaustive8(t *testing.T) {
	for _, op := range divOps {
		t.Run(op.String(), func(t *testing.T) {
			t.Parallel()
			for k := 0; k < 256; k++ {
				s := sat.New()
				e := New(s)
				x, y, z := sym.NewVar("x", 8), sym.NewVar("y", 8), sym.NewVar("z", 8)
				div := sym.NewBin(op, x, z)
				for _, c := range []sym.Expr{sym.NewBin(sym.OpEq, z, sym.NewConst(uint64(k), 8)), sym.NewBin(sym.OpEq, div, y)} {
					if err := e.Assert(c); err != nil {
						t.Fatal(err)
					}
				}
				vars := append(append([]int(nil), e.VarBits("x", 8)...), e.VarBits("y", 8)...)
				var seen [256]bool
				n := 0
				for ; s.Solve(0) == sat.Sat; n++ {
					m := e.Model()
					if want := sym.Eval(div, m); m["y"] != want || seen[m["x"]] {
						t.Fatalf("by %d: solution x=%d y=%d (Eval %d, x seen before %v)",
							k, m["x"], m["y"], want, seen[m["x"]])
					}
					seen[m["x"]] = true
					block := make([]sat.Lit, len(vars))
					for i, v := range vars {
						block[i] = sat.MkLit(v, s.Value(v))
					}
					s.AddClause(block...)
				}
				if n != 256 {
					t.Fatalf("by %d: %d solutions, want one per dividend", k, n)
				}
			}
		})
	}
}

// TestRemConstGates bounds the circuit of getpid's query shape, x % 97
// at 64 bits. The restoring divider spent 25k gates on it.
func TestRemConstGates(t *testing.T) {
	e := New(sat.New())
	if err := e.Assert(remConst64(97, 13)); err != nil {
		t.Fatal(err)
	}
	if g := e.Gates(); g > 2000 {
		t.Errorf("x %% 97 == 13 at 64 bits: %d gates, want at most 2000", g)
	}
}

// TestDivConstWiring checks that zero and powers of two divide with no
// gates at all.
func TestDivConstWiring(t *testing.T) {
	x := sym.NewVar("x", 64)
	for _, op := range []sym.BinOp{sym.OpUDiv, sym.OpURem} {
		for _, k := range []uint64{0, 1, 2, 64, 1 << 63} {
			e := New(sat.New())
			if _, err := e.encode(sym.NewBin(op, x, sym.NewConst(k, 64))); err != nil {
				t.Fatal(err)
			}
			if g := e.Gates(); g != 0 {
				t.Errorf("%v by %d: %d gates, want 0", op, k, g)
			}
		}
	}
}

func remConst64(k, r uint64) sym.Expr {
	x := sym.NewVar("x", 64)
	return sym.NewBin(sym.OpEq, sym.NewBin(sym.OpURem, x, sym.NewConst(k, 64)), sym.NewConst(r, 64))
}

// FuzzDivConst checks 64-bit division by a constant against sym.Eval:
// with the dividend pinned to a, op(x, k) == Eval is Sat and op(x, k)
// != Eval is Unsat; with the dividend free, op(x, k) == Eval is Sat
// and its model evaluates to the same value.
func FuzzDivConst(f *testing.F) {
	f.Add(uint64(9056513716540864773), uint64(97), uint8(1))
	f.Add(uint64(1)<<63, ^uint64(0), uint8(2))
	f.Add(^uint64(0), uint64(10), uint8(0))
	f.Add(uint64(12345), uint64(1)<<63, uint8(3))
	f.Add(uint64(1)<<63|7, uint64(0), uint8(2))
	f.Fuzz(func(t *testing.T, a, k uint64, sel uint8) {
		x := sym.NewVar("x", 64)
		div := sym.NewBin(divOps[int(sel)%len(divOps)], x, sym.NewConst(k, 64))
		want := sym.NewConst(sym.Eval(div, map[string]uint64{"x": a}), 64)
		pin := sym.NewBin(sym.OpEq, x, sym.NewConst(a, 64))
		solve := func(cs ...sym.Expr) (sat.Status, map[string]uint64) {
			s := sat.New()
			e := New(s)
			for _, c := range cs {
				if err := e.Assert(c); err != nil {
					t.Fatal(err)
				}
			}
			st := s.Solve(100000)
			if st == sat.Unknown {
				t.Fatalf("%s: unknown within 100k conflicts", div)
			}
			return st, e.Model()
		}
		if st, _ := solve(pin, sym.NewBin(sym.OpEq, div, want)); st != sat.Sat {
			t.Errorf("%s == %d at x=%d: %v, want sat", div, want.V, a, st)
		}
		if st, _ := solve(pin, sym.NewBin(sym.OpNe, div, want)); st != sat.Unsat {
			t.Errorf("%s != %d at x=%d: %v, want unsat", div, want.V, a, st)
		}
		st, m := solve(sym.NewBin(sym.OpEq, div, want))
		if st != sat.Sat || sym.Eval(div, m) != want.V {
			t.Errorf("%s == %d: %v, model x=%d evaluates to %d", div, want.V, st, m["x"], sym.Eval(div, m))
		}
	})
}
