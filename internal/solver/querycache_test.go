package solver

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/sharedcache"
	"repro/internal/sym"
)

// openTier opens a sharedcache tier in a temp dir, failing the test on
// error.
func openTier(t *testing.T, dir string) *sharedcache.Tier {
	t.Helper()
	tier, err := sharedcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tier.Close() })
	return tier
}

// TestSharedTierCrossReplica is the fleet cache scenario in miniature:
// replica A solves and write-throughs; replica B — a different Cache, a
// different tier handle, same directory — answers the same query from
// the shared tier, bit-for-bit identical to a tierless solve.
func TestSharedTierCrossReplica(t *testing.T) {
	dir := t.TempDir()
	sys := func() []sym.Expr {
		x := sym.NewVar("stx", 16)
		return []sym.Expr{
			sym.NewBin(sym.OpEq, sym.NewBin(sym.OpMul, x, sym.NewConst(3, 16)), sym.NewConst(123, 16)),
		}
	}
	want, err := Solve(sys(), Options{})
	if err != nil {
		t.Fatal(err)
	}

	a := NewCache(16)
	a.SetShared(SharedTier(openTier(t, dir)))
	ra, err := a.Solve(sys(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sa := a.Stats(); sa.SharedMisses != 1 || sa.SharedStores != 1 || sa.SharedHits != 0 {
		t.Fatalf("replica a tier stats: %+v", sa)
	}

	b := NewCache(16)
	b.SetShared(SharedTier(openTier(t, dir)))
	rb, err := b.Solve(sys(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sb := b.Stats()
	if sb.SharedHits != 1 || sb.SharedServed != 1 || sb.SharedStores != 0 {
		t.Fatalf("replica b tier stats: %+v", sb)
	}

	for i, r := range []Result{ra, rb} {
		if r.Status != want.Status || !reflect.DeepEqual(r.Model, want.Model) {
			t.Errorf("replica %d: %v/%v, tierless %v/%v", i, r.Status, r.Model, want.Status, want.Model)
		}
	}

	// A repeat on replica b hits its local LRU, but the answer is still
	// shared-born: SharedServed keeps charging it.
	if _, err := b.Solve(sys(), Options{}); err != nil {
		t.Fatal(err)
	}
	if sb := b.Stats(); sb.SharedServed != 2 || sb.Hits != 1 {
		t.Fatalf("served/hits after repeat: %+v", sb)
	}
}

// A poisoned tier entry (wrong model under this digest, e.g. a digest
// collision or foreign store) must degrade to a miss, never to a wrong
// verdict.
func TestSharedTierRejectsInvalidModel(t *testing.T) {
	dir := t.TempDir()
	tier := openTier(t, dir)

	sys := eqSys("poison", 9)
	key := SharedKey(sys, 100000)
	tier.Store(sharedcache.Entry{Key: key, Status: int(StatusSat), Model: map[string]uint64{"poison": 1}})

	c := NewCache(16)
	c.SetShared(SharedTier(tier))
	r, err := c.Solve(sys, Options{MaxConflicts: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusSat || r.Model["poison"] != 9 {
		t.Fatalf("got %v/%v, want a locally re-solved sat model", r.Status, r.Model)
	}
	if st := c.Stats(); st.SharedHits != 0 || st.SharedMisses != 1 {
		t.Fatalf("poisoned entry was counted as a hit: %+v", st)
	}
}

// TestSharedTierUnsatNeedsExactKey injects Unsat entries under the
// digest key of a satisfiable system, as a digest collision would leave
// them. Without the system's exact key, or under a wrong one, the entry
// must degrade to a miss and a local solve; under the right key it is
// served.
func TestSharedTierUnsatNeedsExactKey(t *testing.T) {
	sys := eqSys("collide", 5)
	key := SharedKey(sys, 100000)
	for _, tc := range []struct {
		name, exact string
		want        Status
		served      uint64
	}{
		{"no exact key", "", StatusSat, 0},
		{"wrong exact key", exactKey(eqSys("collide", 6)), StatusSat, 0},
		{"exact key", exactKey(sys), StatusUnsat, 1},
	} {
		tier := openTier(t, t.TempDir())
		tier.Store(sharedcache.Entry{Key: key, Status: int(StatusUnsat), Exact: tc.exact})
		c := NewCache(16)
		c.SetShared(SharedTier(tier))
		r, err := c.Solve(sys, Options{MaxConflicts: 100000})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, r.Status, tc.want)
		}
		if st := c.Stats(); st.SharedServed != tc.served {
			t.Errorf("%s: shared served %d, want %d (%+v)", tc.name, st.SharedServed, tc.served, st)
		}
	}
}

// TestSharedTierIgnoresOldRevision stores entries under the key an
// older encoding wrote ("d:" + digest + budget), each one the tier would
// serve under the current key: a valid sat model, and a conflict-budget
// Unknown carrying the exact key. Neither may be served; the query is
// solved locally and stored under the current revision's key.
func TestSharedTierIgnoresOldRevision(t *testing.T) {
	sys := eqSys("oldrev", 5)
	oldKey := "d:" + sym.DigestKey(sys) + ":100000"
	if SharedKey(sys, 100000) == oldKey {
		t.Fatal("SharedKey still uses the old prefix")
	}
	for _, e := range []sharedcache.Entry{
		{Key: oldKey, Status: int(StatusSat), Model: map[string]uint64{"oldrev": 5}},
		{Key: oldKey, Status: int(StatusUnknown), Conflicts: 100000, Exact: exactKey(sys)},
	} {
		tier := openTier(t, t.TempDir())
		tier.Store(e)
		c := NewCache(16)
		c.SetShared(SharedTier(tier))
		r, err := c.Solve(sys, Options{MaxConflicts: 100000})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != StatusSat || r.Model["oldrev"] != 5 {
			t.Errorf("old %v entry: got %v/%v, want a local sat solve", Status(e.Status), r.Status, r.Model)
		}
		if st := c.Stats(); st.SharedHits != 0 || st.SharedServed != 0 || st.SharedMisses != 1 {
			t.Errorf("old %v entry was served: %+v", Status(e.Status), st)
		}
		if got, ok := tier.Lookup(SharedKey(sys, 100000)); !ok || got.Status != int(StatusSat) {
			t.Errorf("current-revision entry %+v (found %v), want the local sat result", got, ok)
		}
	}
}

// TestSharedTierStoresExactKeyOnNonSatOnly checks what a local solve
// writes through: an unsat verdict carries the exact key, a sat one
// (checkable by its model) does not.
func TestSharedTierStoresExactKeyOnNonSatOnly(t *testing.T) {
	tier := openTier(t, t.TempDir())
	c := NewCache(16)
	c.SetShared(SharedTier(tier))
	x := sym.NewVar("xk", 8)
	unsat := []sym.Expr{sym.NewBin(sym.OpUlt, x, sym.NewConst(3, 8)), sym.NewBin(sym.OpUlt, sym.NewConst(7, 8), x)}
	sat := eqSys("xk", 4)
	for _, sys := range [][]sym.Expr{unsat, sat} {
		if _, err := c.Solve(sys, Options{MaxConflicts: 100000}); err != nil {
			t.Fatal(err)
		}
	}
	u, ok := tier.Lookup(SharedKey(unsat, 100000))
	if !ok || u.Status != int(StatusUnsat) || u.Exact != exactKey(unsat) {
		t.Errorf("unsat entry %+v (found %v), want exact key %q", u, ok, exactKey(unsat))
	}
	s, ok := tier.Lookup(SharedKey(sat, 100000))
	if !ok || s.Status != int(StatusSat) || s.Exact != "" {
		t.Errorf("sat entry %+v (found %v), want no exact key", s, ok)
	}
}

// TestMemoryTierCrossReplica is TestSharedTierCrossReplica's scenario
// with the in-process tier: cache a solves and writes through, cache b
// answers the same query from the tier, both bit-for-bit what a
// tierless solve returns, and b's local re-hit still counts as served.
func TestMemoryTierCrossReplica(t *testing.T) {
	sys := func() []sym.Expr {
		x := sym.NewVar("mtx", 16)
		return []sym.Expr{
			sym.NewBin(sym.OpEq, sym.NewBin(sym.OpMul, x, sym.NewConst(3, 16)), sym.NewConst(123, 16)),
		}
	}
	want, err := Solve(sys(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tier := NewMemoryTier(16)

	a := NewCache(16)
	a.SetShared(tier)
	ra, err := a.Solve(sys(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sa := a.Stats(); sa.SharedMisses != 1 || sa.SharedStores != 1 || sa.SharedHits != 0 {
		t.Fatalf("cache a tier stats: %+v", sa)
	}

	b := NewCache(16)
	b.SetShared(tier)
	rb, err := b.Solve(sys(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sb := b.Stats(); sb.SharedHits != 1 || sb.SharedServed != 1 || sb.SharedStores != 0 {
		t.Fatalf("cache b tier stats: %+v", sb)
	}
	for i, r := range []Result{ra, rb} {
		if r.Status != want.Status || !reflect.DeepEqual(r.Model, want.Model) {
			t.Errorf("cache %d: %v/%v, tierless %v/%v", i, r.Status, r.Model, want.Status, want.Model)
		}
	}

	if _, err := b.Solve(sys(), Options{}); err != nil {
		t.Fatal(err)
	}
	if sb := b.Stats(); sb.SharedServed != 2 || sb.Hits != 1 {
		t.Fatalf("served/hits after repeat: %+v", sb)
	}
}

// TestMemoryTierEvictsLeastRecent checks the tier's bound: with room for
// two entries, a third store evicts the one looked up least recently.
func TestMemoryTierEvictsLeastRecent(t *testing.T) {
	tier := NewMemoryTier(2)
	tier.Store("a", CachedResult{Status: StatusSat, Model: map[string]uint64{"x": 1}})
	tier.Store("b", CachedResult{Status: StatusUnsat, Exact: "b"})
	if _, ok := tier.Lookup("a"); !ok {
		t.Fatal("a missing before the bound is reached")
	}
	tier.Store("c", CachedResult{Status: StatusUnknown, Conflicts: 5, Exact: "c"})
	if _, ok := tier.Lookup("b"); ok {
		t.Error("b, the least recently used entry, survived a third store")
	}
	if got, ok := tier.Lookup("a"); !ok || got.Model["x"] != 1 {
		t.Errorf("a = %+v (found %v), want its model kept", got, ok)
	}
	if got, ok := tier.Lookup("c"); !ok || got.Conflicts != 5 || got.Exact != "c" {
		t.Errorf("c = %+v (found %v)", got, ok)
	}
}

// TestMemoryTierConcurrent has several caches, one per goroutine, share
// one memory tier while they solve the same systems, as the cells of a
// parallel grid do; every answer must equal a tierless solve. Run it
// under -race.
func TestMemoryTierConcurrent(t *testing.T) {
	systems := [][]sym.Expr{eqSys("mc", 3), eqSys("mc", 200)}
	x := sym.NewVar("mc", 8)
	systems = append(systems, []sym.Expr{sym.NewBin(sym.OpUlt, x, sym.NewConst(3, 8)), sym.NewBin(sym.OpUlt, sym.NewConst(7, 8), x)})
	want := make([]Result, len(systems))
	for i, sys := range systems {
		r, err := Solve(sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	tier := NewMemoryTier(2) // smaller than the working set: stores evict
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewCache(16)
			c.SetShared(tier)
			for round := 0; round < 5; round++ {
				for i, sys := range systems {
					r, err := c.Solve(sys, Options{})
					if err != nil {
						t.Error(err)
						return
					}
					if r.Status != want[i].Status || !reflect.DeepEqual(r.Model, want[i].Model) {
						t.Errorf("system %d: %v/%v, tierless %v/%v", i, r.Status, r.Model, want[i].Status, want[i].Model)
					}
				}
			}
		}()
	}
	wg.Wait()
}
