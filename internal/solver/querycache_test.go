package solver

import (
	"reflect"
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
	key := "d:" + sym.DigestKey(sys) + ":" + "100000"
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
	key := "d:" + sym.DigestKey(sys) + ":" + "100000"
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
	u, ok := tier.Lookup("d:" + sym.DigestKey(unsat) + ":100000")
	if !ok || u.Status != int(StatusUnsat) || u.Exact != exactKey(unsat) {
		t.Errorf("unsat entry %+v (found %v), want exact key %q", u, ok, exactKey(unsat))
	}
	s, ok := tier.Lookup("d:" + sym.DigestKey(sat) + ":100000")
	if !ok || s.Status != int(StatusSat) || s.Exact != "" {
		t.Errorf("sat entry %+v (found %v), want no exact key", s, ok)
	}
}
