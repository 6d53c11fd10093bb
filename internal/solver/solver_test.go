package solver

import (
	"math"
	"testing"

	"repro/internal/sym"
)

func TestEmptySystem(t *testing.T) {
	if _, err := Solve(nil, Options{}); err == nil {
		t.Error("empty system should error")
	}
}

func TestConstantFalse(t *testing.T) {
	res, err := Solve([]sym.Expr{sym.False()}, Options{})
	if err != nil || res.Status != StatusUnsat {
		t.Errorf("res=%+v err=%v", res, err)
	}
}

func TestBitvectorSat(t *testing.T) {
	x := sym.NewZExt(sym.NewVar("x", 8), 64)
	c := sym.NewBin(sym.OpEq,
		sym.NewBin(sym.OpAdd, x, sym.NewConst(10, 64)),
		sym.NewConst(52, 64))
	res, err := Solve([]sym.Expr{c}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSat || res.Model["x"] != 42 {
		t.Errorf("res = %+v", res)
	}
}

func TestBitvectorUnsat(t *testing.T) {
	x := sym.NewVar("x", 8)
	c1 := sym.NewBin(sym.OpUlt, sym.NewZExt(x, 64), sym.NewConst(5, 64))
	c2 := sym.NewBin(sym.OpUlt, sym.NewConst(10, 64), sym.NewZExt(x, 64))
	res, err := Solve([]sym.Expr{c1, c2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusUnsat {
		t.Errorf("status = %v, want unsat", res.Status)
	}
}

func TestSeedCompletion(t *testing.T) {
	// y is unconstrained; its model value should come from the seed.
	x := sym.NewVar("x", 8)
	c := sym.NewBin(sym.OpEq, sym.NewZExt(x, 64), sym.NewConst(7, 64))
	res, err := Solve([]sym.Expr{c}, Options{Seed: map[string]uint64{"x": 1, "y": 9}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSat || res.Model["x"] != 7 {
		t.Fatalf("res = %+v", res)
	}
	if _, ok := res.Model["y"]; ok {
		t.Log("y not in constraints; absent from model is fine")
	}
}

func TestFloatRejectedWithoutFPMode(t *testing.T) {
	// A structural float constraint (not a bare variable) is rejected
	// without an FP theory.
	x := sym.NewVar("x", 64)
	c := sym.NewBin(sym.OpFEq,
		sym.NewBin(sym.OpFAdd, x, sym.NewConst(math.Float64bits(1), 64)),
		sym.NewConst(math.Float64bits(2.0), 64))
	res, err := Solve([]sym.Expr{c}, Options{FP: FPNone})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFloatUnsupported {
		t.Errorf("status = %v, want float-unsupported", res.Status)
	}
}

func TestTrivialFPAssignment(t *testing.T) {
	// A bare variable against a constant is assignable even without an FP
	// theory — the over-approximation behind simulated call summaries.
	v := sym.NewVar("sim!ext:pow#0", 64)
	c := sym.NewBin(sym.OpFEq, v, sym.NewConst(math.Float64bits(-1), 64))
	res, err := Solve([]sym.Expr{c}, Options{FP: FPNone})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSat {
		t.Fatalf("status = %v, want sat", res.Status)
	}
	if math.Float64frombits(res.Model["sim!ext:pow#0"]) != -1 {
		t.Errorf("model = %v", res.Model)
	}
	// Ordering comparisons place the variable on the right side.
	lt := sym.NewBin(sym.OpFLt, sym.NewConst(math.Float64bits(0.47), 64), v)
	res, err = Solve([]sym.Expr{lt}, Options{FP: FPNone})
	if err != nil || res.Status != StatusSat {
		t.Fatalf("flt: %v %v", res.Status, err)
	}
	if f := math.Float64frombits(res.Model["sim!ext:pow#0"]); !(0.47 < f) {
		t.Errorf("flt model = %v", f)
	}
}

func TestFPSearchDirectEquality(t *testing.T) {
	x := sym.NewVar("x", 64)
	c := sym.NewBin(sym.OpFEq, x, sym.NewConst(math.Float64bits(2.0), 64))
	res, err := Solve([]sym.Expr{c}, Options{FP: FPSearch, RandSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Bit-pattern equality through random search is hard; equality with a
	// constant should still be found because any move landing exactly is
	// accepted... in practice this needs the nudge move from the seed.
	if res.Status == StatusSat {
		f := math.Float64frombits(res.Model["x"])
		if f != 2.0 {
			t.Errorf("model x = %v, want 2.0", f)
		}
	} else {
		t.Logf("direct FP equality not found (status %v) — acceptable for raw 64-bit var", res.Status)
	}
}

// TestFPSearchPaperBomb reproduces the paper's float challenge:
// 1024 + x == 1024 && x > 0 where x is parsed from a numeric byte string
// (here simplified to a direct conversion of rendered bytes).
func TestFPSearchPaperBomb(t *testing.T) {
	// Model: x = i2f(digit) / 10^13 style tiny value built from bytes is
	// involved in the real pipeline; here we exercise the renderNumeric
	// move directly: bytes argv1[0..7] are interpreted through a toy
	// "first byte minus '0' scaled" expression that only the numeric
	// rendering can zero out... Instead verify the core property on a
	// direct f64 variable with ordering constraints, which the nudge and
	// random moves solve.
	x := sym.NewVar("x", 64)
	c1024 := sym.NewConst(math.Float64bits(1024), 64)
	zero := sym.NewConst(math.Float64bits(0), 64)
	cs := []sym.Expr{
		sym.NewBin(sym.OpFEq, sym.NewBin(sym.OpFAdd, c1024, x), c1024),
		sym.NewBin(sym.OpFLt, zero, x),
	}
	res, err := Solve(cs, Options{FP: FPSearch, RandSeed: 42, FPIterations: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSat {
		t.Fatalf("status = %v, want sat", res.Status)
	}
	f := math.Float64frombits(res.Model["x"])
	if !(f > 0 && 1024+f == 1024) {
		t.Errorf("model x = %v does not satisfy the bomb condition", f)
	}
}

func TestFPSearchByteRendering(t *testing.T) {
	// Variables are bytes of a numeric string; the constraint demands the
	// first byte be a digit and the (toy) parsed value be tiny: exercised
	// via argv-style names so renderNumeric applies.
	b0 := sym.NewVar("argv1[0]", 8)
	b1 := sym.NewVar("argv1[1]", 8)
	// Constraint set: b0 == '0' and b1 == '.', reachable by rendering
	// any value in (0,1).
	cs := []sym.Expr{
		sym.NewBin(sym.OpEq, b0, sym.NewConst('0', 8)),
		sym.NewBin(sym.OpEq, b1, sym.NewConst('.', 8)),
		// Force the FP path so the local search engages.
		sym.NewBin(sym.OpFLe, sym.NewConst(0, 64), sym.NewI2F(sym.NewZExt(b0, 64))),
	}
	res, err := Solve(cs, Options{FP: FPSearch, RandSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSat {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Model["argv1[0]"] != '0' || res.Model["argv1[1]"] != '.' {
		t.Errorf("model = %+v", res.Model)
	}
}

func TestUnknownOnTinyBudget(t *testing.T) {
	// A 64x64 multiplication equality with one conflict allowed.
	x := sym.NewVar("x", 64)
	y := sym.NewVar("y", 64)
	c := sym.NewBin(sym.OpEq,
		sym.NewBin(sym.OpMul, x, y),
		sym.NewConst(0xdeadbeefcafebab1, 64))
	res, err := Solve([]sym.Expr{c}, Options{MaxConflicts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusUnknown && res.Status != StatusSat {
		t.Errorf("status = %v, want unknown (or lucky sat)", res.Status)
	}
}

func TestModelSatisfiesSystem(t *testing.T) {
	// Multi-constraint digit system: '0' <= b <= '9' and (b-'0')*3 == 15.
	b := sym.NewZExt(sym.NewVar("b", 8), 64)
	d := sym.NewBin(sym.OpSub, b, sym.NewConst('0', 64))
	cs := []sym.Expr{
		sym.NewBin(sym.OpUle, sym.NewConst('0', 64), b),
		sym.NewBin(sym.OpUle, b, sym.NewConst('9', 64)),
		sym.NewBin(sym.OpEq, sym.NewBin(sym.OpMul, d, sym.NewConst(3, 64)), sym.NewConst(15, 64)),
	}
	res, err := Solve(cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSat || res.Model["b"] != '5' {
		t.Errorf("res = %+v, want b='5'", res)
	}
	for _, c := range cs {
		if sym.Eval(c, res.Model) != 1 {
			t.Errorf("model does not satisfy %s", c)
		}
	}
}

// TestByteGroupsOrderDeterministic gates the FP local search's
// determinism: fpSearch picks a byte group by index from its seeded rng,
// so byteGroups must return its groups in one order, sorted by prefix,
// however the map it builds them in iterates.
func TestByteGroupsOrderDeterministic(t *testing.T) {
	names := []string{"web:P[0]", "argv1[1]", "getenv:X[0]", "argv1[0]", "web:P[1]", "getenv:X[1]", "n"}
	widths := map[string]int{"n": 64}
	for _, n := range names[:6] {
		widths[n] = 8
	}
	want := []string{"argv1[", "getenv:X[", "web:P["}
	for call := 0; call < 100; call++ {
		groups := byteGroups(names, widths)
		if len(groups) != len(want) {
			t.Fatalf("call %d: %d groups, want %d", call, len(groups), len(want))
		}
		for i, g := range groups {
			if g.prefix != want[i] || len(g.names) != 2 || g.names[0] != want[i]+"0]" {
				t.Fatalf("call %d: group %d = %+v, want prefix %q holding %s0] and %s1]", call, i, g, want[i], want[i], want[i])
			}
		}
	}
}
