package solver

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sym"
)

// eqSys builds x == v over an 8-bit variable.
func eqSys(name string, v uint64) []sym.Expr {
	return []sym.Expr{sym.NewBin(sym.OpEq, sym.NewVar(name, 8), sym.NewConst(v, 8))}
}

func TestCacheHitOnStructurallyEqualSystem(t *testing.T) {
	c := NewCache(16)
	r1, err := c.Solve(eqSys("x", 7), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Solve(eqSys("x", 7), Options{}) // fresh allocations, same structure
	if err != nil {
		t.Fatal(err)
	}
	if r1.Status != StatusSat || r2.Status != StatusSat {
		t.Fatalf("status %v/%v", r1.Status, r2.Status)
	}
	if !reflect.DeepEqual(r1.Model, r2.Model) {
		t.Errorf("cached model %v differs from fresh %v", r2.Model, r1.Model)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
}

func TestCacheTransparency(t *testing.T) {
	// For any seed, Cache.Solve must return bit-for-bit what Solve
	// returns — including on a hit, where the seed-dependent completion
	// and minimization run on the cached raw model.
	sys := func() []sym.Expr {
		x := sym.NewVar("x", 8)
		y := sym.NewVar("y", 8)
		return []sym.Expr{
			sym.NewBin(sym.OpEq, sym.NewBin(sym.OpAdd, x, y), sym.NewConst(10, 8)),
		}
	}
	seeds := []map[string]uint64{
		{"x": 3, "y": 7},
		{"x": 10, "y": 0},
		{"x": 1, "y": 1},
		nil,
	}
	c := NewCache(16)
	for i, seed := range seeds {
		want, err := Solve(sys(), Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Solve(sys(), Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || !reflect.DeepEqual(got.Model, want.Model) {
			t.Errorf("seed %d: cache %v/%v, direct %v/%v",
				i, got.Status, got.Model, want.Status, want.Model)
		}
	}
	if st := c.Stats(); st.Hits != uint64(len(seeds)-1) {
		t.Errorf("hits = %d, want %d (same system, varying seeds)", st.Hits, len(seeds)-1)
	}

	// Misses on one cache reuse its SAT solvers, Reset between queries:
	// a large system first grows the buffers, then the small ones run on
	// the same solver. Each must still decide, and count conflicts,
	// exactly as the package-level Solve on a new solver.
	misses := []struct {
		name string
		sys  []sym.Expr
		seed map[string]uint64
	}{
		{"factor-16", stressFactorSystem(16, 65521*65519), nil},
		{"x+y=10", sys(), map[string]uint64{"x": 3, "y": 7}},
		{"unsat", []sym.Expr{
			sym.NewBin(sym.OpEq, sym.NewVar("u", 8), sym.NewConst(1, 8)),
			sym.NewBin(sym.OpEq, sym.NewVar("u", 8), sym.NewConst(2, 8)),
		}, nil},
		{"factor-8", stressFactorSystem(8, 143), map[string]uint64{"a": 2, "b": 3}},
		{"x=7", eqSys("x", 7), map[string]uint64{"x": 1}},
	}
	c = NewCache(16)
	for _, m := range misses {
		opts := Options{MaxConflicts: 20_000, Seed: m.seed}
		want, err := Solve(m.sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Solve(m.sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: cache %v/%d conflicts/%v, direct %v/%d conflicts/%v", m.name,
				got.Status, got.Conflicts, got.Model, want.Status, want.Conflicts, want.Model)
		}
	}
	if st := c.Stats(); st.Misses != uint64(len(misses)) || st.Hits != 0 {
		t.Errorf("hits/misses = %d/%d, want 0/%d", st.Hits, st.Misses, len(misses))
	}
}

func TestCacheUnsatAndMutationIsolation(t *testing.T) {
	c := NewCache(16)
	unsat := func() []sym.Expr {
		x := sym.NewVar("x", 8)
		return []sym.Expr{
			sym.NewBin(sym.OpEq, x, sym.NewConst(1, 8)),
			sym.NewBin(sym.OpEq, x, sym.NewConst(2, 8)),
		}
	}
	r1, _ := c.Solve(unsat(), Options{})
	r2, _ := c.Solve(unsat(), Options{})
	if r1.Status != StatusUnsat || r2.Status != StatusUnsat {
		t.Fatalf("status %v/%v, want unsat", r1.Status, r2.Status)
	}

	// Mutating a returned model must not corrupt the cached entry.
	r3, _ := c.Solve(eqSys("m", 5), Options{})
	r3.Model["m"] = 99
	r4, _ := c.Solve(eqSys("m", 5), Options{})
	if r4.Model["m"] != 5 {
		t.Errorf("cached entry corrupted by caller mutation: %v", r4.Model)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	for v := uint64(0); v < 4; v++ {
		if _, err := c.Solve(eqSys("x", v), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions != 2 || st.Len != 2 {
		t.Errorf("evictions=%d len=%d, want 2/2", st.Evictions, st.Len)
	}
	// Oldest entries are gone; newest still hit.
	c.Solve(eqSys("x", 3), Options{}) //nolint:errcheck
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("hits = %d, want 1", st.Hits)
	}
}

func TestCacheFloatBypass(t *testing.T) {
	c := NewCache(16)
	x := sym.NewVar("f", 64)
	sys := []sym.Expr{sym.NewBin(sym.OpFEq, x, sym.NewConst(0x3ff0000000000000, 64))}
	r, err := c.Solve(sys, Options{Seed: map[string]uint64{"f": 0}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusSat {
		t.Fatalf("status %v", r.Status)
	}
	st := c.Stats()
	if st.Bypasses != 1 || st.Hits+st.Misses != 0 {
		t.Errorf("float system must bypass the cache: %+v", st)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sys := eqSys(fmt.Sprintf("v%d", i%10), uint64(i%10))
				r, err := c.Solve(sys, Options{})
				if err != nil || r.Status != StatusSat {
					t.Errorf("goroutine %d: %v %v", g, r.Status, err)
					return
				}
				if r.Model[fmt.Sprintf("v%d", i%10)] != uint64(i%10) {
					t.Errorf("goroutine %d: wrong model %v", g, r.Model)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Hits == 0 {
		t.Error("expected concurrent hits")
	}
}
