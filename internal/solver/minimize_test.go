package solver

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"repro/internal/sym"
)

// minimizeReference is the whole-system form of minimizeModel: every
// reset re-evaluates every constraint.
func minimizeReference(model map[string]uint64, constraints []sym.Expr, seed map[string]uint64) {
	satisfied := func() bool {
		for _, c := range constraints {
			if sym.Eval(c, model) != 1 {
				return false
			}
		}
		return true
	}
	if len(seed) == 0 || !satisfied() {
		return
	}
	for _, name := range sym.Vars(constraints...) {
		sv, ok := seed[name]
		if !ok || model[name] == sv {
			continue
		}
		old := model[name]
		model[name] = sv
		if !satisfied() {
			model[name] = old
		}
	}
}

// TestMinimizeModelMatchesReference finishes random models of random
// 8-bit systems, with and without the variable-list memo, and requires
// exactly the model the whole-system re-check gives. A third of the
// systems get a model that violates a constraint, which both leave as
// it is.
func TestMinimizeModelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := []sym.BinOp{sym.OpAdd, sym.OpXor, sym.OpAnd, sym.OpMul}
	cmps := []sym.BinOp{sym.OpUlt, sym.OpEq, sym.OpNe, sym.OpSle}
	memo := &varLists{}
	for iter := 0; iter < 500; iter++ {
		vars := make([]sym.Expr, 2+rng.Intn(5))
		model := make(map[string]uint64)
		seed := make(map[string]uint64)
		for i := range vars {
			name := fmt.Sprintf("v%d", i)
			vars[i] = sym.NewVar(name, 8)
			model[name] = uint64(rng.Intn(256))
			if rng.Intn(4) != 0 {
				seed[name] = uint64(rng.Intn(256))
			}
		}
		var constraints []sym.Expr
		for n := 1 + rng.Intn(5); n > 0; n-- {
			a, b := vars[rng.Intn(len(vars))], vars[rng.Intn(len(vars))]
			lhs := sym.NewBin(ops[rng.Intn(len(ops))], a, b)
			c := sym.NewBin(cmps[rng.Intn(len(cmps))], lhs, sym.NewConst(uint64(rng.Intn(256)), 8))
			if sym.Eval(c, model) != 1 && iter%3 != 0 {
				c = sym.NewBoolNot(c)
			}
			constraints = append(constraints, c)
		}
		want := maps.Clone(model)
		minimizeReference(want, constraints, seed)
		for _, lists := range []*varLists{nil, memo} {
			got := maps.Clone(model)
			minimizeModel(got, constraints, seed, lists)
			if !maps.Equal(got, want) {
				t.Fatalf("system %d %v, seed %v: minimized %v, reference %v", iter, constraints, seed, got, want)
			}
		}
	}
}
