package solver

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sym"
)

// fpSearchHash fingerprints the FP local search over the seeded corpus
// of TestFPSearchTrajectoryPinned. The move draws, the penalty sums that
// decide each accept or reject, the starting environment and the model
// minimization all show up in it as a different status or model. It
// must only change together with a deliberate change to the search.
const fpSearchHash = 0x59906011a22f1a5a

// fpPinSystem builds one random float-bearing system of the shapes the
// engine produces: byte variables folded into an integer as atoi does,
// integer-to-float and float-to-integer conversions, float arithmetic,
// float and integer comparisons, ITEs and negated roots.
func fpPinSystem(rng *rand.Rand) []sym.Expr {
	f64 := func(f float64) sym.Expr { return sym.NewConst(math.Float64bits(f), 64) }
	n := 1 + rng.Intn(4)
	acc := sym.Expr(sym.NewConst(0, 64))
	var ints []sym.Expr
	for i := 0; i < n; i++ {
		b := sym.NewZExt(sym.NewVar(fmt.Sprintf("argv1[%d]", i), 8), 64)
		ints = append(ints, b)
		d := sym.NewBin(sym.OpSub, b, sym.NewConst('0', 64))
		acc = sym.NewBin(sym.OpAdd, sym.NewBin(sym.OpMul, acc, sym.NewConst(10, 64)), d)
	}
	ints = append(ints, acc)
	floats := []sym.Expr{sym.NewI2F(acc), f64(float64(rng.Intn(200) - 100))}
	if rng.Intn(3) == 0 {
		floats = append(floats, sym.NewVar("sim!ext:pow#0", 64))
	}
	pickInt := func() sym.Expr { return ints[rng.Intn(len(ints))] }
	pickFloat := func() sym.Expr { return floats[rng.Intn(len(floats))] }
	fops := []sym.BinOp{sym.OpFAdd, sym.OpFSub, sym.OpFMul, sym.OpFDiv}
	for k := rng.Intn(5); k > 0; k-- {
		switch rng.Intn(5) {
		case 0, 1:
			floats = append(floats, sym.NewBin(fops[rng.Intn(len(fops))], pickFloat(), pickFloat()))
		case 2:
			floats = append(floats, sym.NewBin(fops[rng.Intn(len(fops))], pickFloat(), f64(rng.Float64()*20-10)))
		case 3:
			ints = append(ints, sym.NewF2I(pickFloat()))
		default:
			c := sym.NewBin(sym.OpUlt, pickInt(), sym.NewConst(uint64(rng.Intn(100)), 64))
			floats = append(floats, sym.NewITE(c, pickFloat(), pickFloat()))
		}
	}
	fcmps := []sym.BinOp{sym.OpFEq, sym.OpFLt, sym.OpFLe}
	icmps := []sym.BinOp{sym.OpEq, sym.OpNe, sym.OpUlt, sym.OpUle, sym.OpSlt, sym.OpSle}
	var cs []sym.Expr
	for k := 1 + rng.Intn(4); k > 0; k-- {
		var c sym.Expr
		if k == 1 || rng.Intn(2) == 0 {
			c = sym.NewBin(fcmps[rng.Intn(len(fcmps))], floats[len(floats)-1-rng.Intn(2)], pickFloat())
		} else {
			c = sym.NewBin(icmps[rng.Intn(len(icmps))], pickInt(), sym.NewConst(uint64(rng.Intn(300)), 64))
		}
		if rng.Intn(4) == 0 {
			c = sym.NewBoolNot(c)
		}
		cs = append(cs, c)
	}
	return cs
}

// TestFPSearchTrajectoryPinned drives ~200 seeded random float systems
// through SolveContext with the local search at a fixed RandSeed, Seed
// and iteration budget, and hashes every status and sorted model. The
// budget is small enough that both Sat and Unknown occur.
func TestFPSearchTrajectoryPinned(t *testing.T) {
	const instances = 200
	h := fnv.New64a()
	counts := map[Status]int{}
	for seed := int64(1); seed <= instances; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cs := fpPinSystem(rng)
		env := map[string]uint64{"sim!ext:pow#0": math.Float64bits(rng.NormFloat64())}
		for i := 0; i < 4; i++ {
			env[fmt.Sprintf("argv1[%d]", i)] = uint64('0' + rng.Intn(10))
		}
		res, err := SolveContext(context.Background(), cs, Options{FP: FPSearch, FPIterations: 3000, RandSeed: seed, Seed: env})
		if err != nil {
			t.Fatalf("instance %d: %v", seed, err)
		}
		counts[res.Status]++
		names := make([]string, 0, len(res.Model))
		for n := range res.Model {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(h, "%d|%v", seed, res.Status)
		for _, n := range names {
			fmt.Fprintf(h, "|%s=%#x", n, res.Model[n])
		}
		fmt.Fprintln(h)
	}
	if counts[StatusSat] == 0 || counts[StatusUnknown] == 0 {
		t.Fatalf("corpus statuses %v: want both sat and unknown", counts)
	}
	if got := h.Sum64(); got != fpSearchHash {
		t.Errorf("FP search hash %#x, want %#x (statuses %v)", got, uint64(fpSearchHash), counts)
	}
}
