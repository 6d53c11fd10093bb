package sharedcache_test

import (
	"testing"

	"repro/internal/sharedcache"
	"repro/internal/solver"
	"repro/internal/sym"
)

// TestKeyedEntrySupersedesLegacy starts from a tier holding an unsat
// verdict written before exact keys were stored. The solver layer does
// not serve it, so the first query solves locally and stores the keyed
// entry, which must replace the legacy one both in memory and on journal
// replay: after a reopen, a second replica is answered from the tier.
func TestKeyedEntrySupersedesLegacy(t *testing.T) {
	dir := t.TempDir()
	x := sym.NewVar("legacy", 8)
	sys := []sym.Expr{
		sym.NewBin(sym.OpUlt, x, sym.NewConst(3, 8)),
		sym.NewBin(sym.OpUlt, sym.NewConst(7, 8), x),
	}
	opts := solver.Options{MaxConflicts: 100000}
	key := "d:" + sym.DigestKey(sys) + ":100000"

	solve := func(tier *sharedcache.Tier) solver.CacheStats {
		t.Helper()
		c := solver.NewCache(16)
		c.SetShared(solver.SharedTier(tier))
		r, err := c.Solve(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != solver.StatusUnsat {
			t.Fatalf("status %v, want unsat", r.Status)
		}
		return c.Stats()
	}

	tier, err := sharedcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tier.Store(sharedcache.Entry{Key: key, Status: int(solver.StatusUnsat)})
	if st := solve(tier); st.SharedServed != 0 || st.SharedStores != 1 {
		t.Fatalf("legacy entry: %+v, want a local solve and a store", st)
	}
	if e, ok := tier.Lookup(key); !ok || e.Exact == "" {
		t.Fatalf("entry after the store %+v (found %v), want the keyed one", e, ok)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}

	tier, err = sharedcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	if st := solve(tier); st.SharedHits != 1 || st.SharedServed != 1 || st.SharedStores != 0 {
		t.Fatalf("after reopen: %+v, want the keyed entry served", st)
	}
}

// TestSupersedeOnlyReplacesLegacy checks the other cases: an entry with
// a model or with an exact key is kept, whatever is stored after it.
func TestSupersedeOnlyReplacesLegacy(t *testing.T) {
	dir := t.TempDir()
	tier, err := sharedcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tier.Store(sharedcache.Entry{Key: "sat", Status: 1, Model: map[string]uint64{"x": 1}})
	tier.Store(sharedcache.Entry{Key: "sat", Status: 2, Exact: "ab"})
	tier.Store(sharedcache.Entry{Key: "keyed", Status: 2, Exact: "ab"})
	tier.Store(sharedcache.Entry{Key: "keyed", Status: 3, Exact: "cd"})
	check := func(tier *sharedcache.Tier) {
		t.Helper()
		if e, _ := tier.Lookup("sat"); e.Status != 1 {
			t.Errorf("sat entry replaced: %+v", e)
		}
		if e, _ := tier.Lookup("keyed"); e.Status != 2 || e.Exact != "ab" {
			t.Errorf("keyed entry replaced: %+v", e)
		}
	}
	check(tier)
	if st := tier.Stats(); st.Stores != 2 {
		t.Errorf("stores %d, want 2", st.Stores)
	}
	tier.Close()
	if tier, err = sharedcache.Open(dir); err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	check(tier)
}
