package solver

import (
	"context"
	"encoding/hex"
	"testing"

	"repro/internal/exchange"
	"repro/internal/sym"
	"repro/internal/warmstore"
)

// distinctSystem builds an unsatisfiable pigeonhole over bitvectors:
// n variables, each < n-1, pairwise distinct. Forces real clause
// learning through the bitblasted encoding.
func distinctSystem(n int) []sym.Expr {
	vars := make([]sym.Expr, n)
	for i := range vars {
		vars[i] = sym.NewVar(string(rune('a'+i)), 8)
	}
	var cs []sym.Expr
	for _, v := range vars {
		cs = append(cs, sym.NewBin(sym.OpUlt, v, sym.NewConst(uint64(n-1), 8)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cs = append(cs, sym.NewBin(sym.OpNe, vars[i], vars[j]))
		}
	}
	return cs
}

// TestPortfolioRoundEquivalence replays the engine's round pattern
// through a Portfolio and through fresh SolveContext calls, requiring
// identical statuses and Eval-valid models — the differential criterion
// at the solver layer.
func TestPortfolioRoundEquivalence(t *testing.T) {
	cs := benchChain(5)
	opts := Options{MaxConflicts: 1_000_000}
	pf := NewPortfolio(context.Background(), PortfolioOptions{
		Options:  opts,
		Cache:    NewCache(64),
		Exchange: exchange.New(),
	})
	for i, c := range cs {
		negated := sym.NewBoolNot(c)
		system := append(append([]sym.Expr{}, cs[:i]...), negated)
		want, err := SolveContext(context.Background(), system, opts)
		if err != nil {
			t.Fatalf("query %d: fresh: %v", i, err)
		}
		got, err := pf.Check(negated)
		if err != nil {
			t.Fatalf("query %d: portfolio: %v", i, err)
		}
		if got.Status != want.Status {
			t.Fatalf("query %d: portfolio %v, fresh %v", i, got.Status, want.Status)
		}
		if got.Status == StatusSat {
			for j, e := range system {
				if sym.Eval(e, got.Model) != 1 {
					t.Fatalf("query %d: portfolio model violates constraint %d", i, j)
				}
			}
		}
		pf.Assert(c)
	}
	st := pf.Stats()
	if st.Checks != len(cs) || st.Races == 0 {
		t.Fatalf("no races recorded: %+v", st)
	}
	if st.SessionWins+st.FreshWins != st.Races {
		t.Fatalf("wins don't cover races: %+v", st)
	}
}

// TestPortfolioUnsatSharing races an unsatisfiable pigeonhole system and
// checks the exchange actually carried clauses between the fresh
// workers.
func TestPortfolioUnsatSharing(t *testing.T) {
	cs := distinctSystem(5)
	ex := exchange.New()
	pf := NewPortfolio(context.Background(), PortfolioOptions{
		Options:  Options{MaxConflicts: 2_000_000},
		Exchange: ex,
	})
	pf.Assert(cs[:len(cs)-1]...)
	// The last distinctness constraint is the query: prefix ∧ ¬¬c.
	res, err := pf.Check(cs[len(cs)-1])
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusUnsat {
		t.Fatalf("pigeonhole: %v, want unsat", res.Status)
	}
	if ex.Stats().Published == 0 {
		t.Error("no clauses published during an unsat race")
	}
	if pf.Stats().ClausesShared == 0 {
		t.Error("portfolio stats recorded no shared clauses")
	}
}

// TestPortfolioWarmStart solves through a warm-start store, reopens the
// store (a new process), and checks the second portfolio answers the
// same queries from disk with identical verdicts.
func TestPortfolioWarmStart(t *testing.T) {
	dir := t.TempDir()
	cs := benchChain(4)
	opts := Options{MaxConflicts: 1_000_000}

	run := func(warm *warmstore.Store) ([]Result, PortfolioStats) {
		pf := NewPortfolio(context.Background(), PortfolioOptions{
			Options:  opts,
			Exchange: exchange.New(),
			Warm:     warm,
		})
		var out []Result
		for _, c := range cs {
			r, err := pf.Check(sym.NewBoolNot(c))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
			pf.Assert(c)
		}
		return out, pf.Stats()
	}

	w1, err := warmstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, coldStats := run(w1)
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	if coldStats.WarmQueryHits != 0 {
		t.Fatalf("cold run hit the store: %+v", coldStats)
	}

	w2, err := warmstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	warm, warmStats := run(w2)
	if warmStats.WarmQueryHits == 0 {
		t.Fatalf("warm run never hit the store: %+v", warmStats)
	}
	if warmStats.Races >= coldStats.Races {
		t.Fatalf("warm run raced as much as cold: cold %d, warm %d",
			coldStats.Races, warmStats.Races)
	}
	for i := range cold {
		if cold[i].Status != warm[i].Status {
			t.Fatalf("query %d: cold %v, warm %v", i, cold[i].Status, warm[i].Status)
		}
		if warm[i].Status == StatusSat {
			system := append(append([]sym.Expr{}, cs[:i]...), sym.NewBoolNot(cs[i]))
			for j, e := range system {
				if sym.Eval(e, warm[i].Model) != 1 {
					t.Fatalf("query %d: warm model violates constraint %d", i, j)
				}
			}
		}
	}
}

// TestPortfolioWarmDistrustsBadModels plants corrupt and inconclusive
// entries under the key a Check looks up and checks the portfolio
// degrades each to a miss (a race) instead of serving it, while a valid
// entry is served.
func TestPortfolioWarmDistrustsBadModels(t *testing.T) {
	x := sym.NewVar("x", 8)
	system := []sym.Expr{sym.NewBin(sym.OpEq, x, sym.NewConst(7, 8))}
	opts := Options{MaxConflicts: 1000}
	key := hex.EncodeToString([]byte(sym.StableKey(system))) + "|1000"
	for _, tc := range []struct {
		name   string
		e      warmstore.QueryEntry
		served bool
	}{
		{"model violating the system", warmstore.QueryEntry{Key: key, Status: int(StatusSat), Model: map[string]uint64{"x": 9}}, false},
		{"valid model", warmstore.QueryEntry{Key: key, Status: int(StatusSat), Model: map[string]uint64{"x": 7}}, true},
		{"inconclusive entry", warmstore.QueryEntry{Key: key, Status: int(StatusUnknown)}, false},
	} {
		w, err := warmstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		w.PutQuery(tc.e)
		pf := NewPortfolio(context.Background(), PortfolioOptions{Options: opts, Warm: w})
		res, err := pf.Check(system[0])
		w.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusSat || res.Model["x"] != 7 {
			t.Fatalf("%s: got %v/%v, want sat x=7", tc.name, res.Status, res.Model)
		}
		if st := pf.Stats(); (st.WarmQueryHits == 1) != tc.served || (st.Races == 1) == tc.served {
			t.Fatalf("%s: served=%v, stats %+v", tc.name, tc.served, st)
		}
	}
}

// TestPortfolioCancellation checks a cancelled context stops a race with
// Unknown instead of hanging.
func TestPortfolioCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pf := NewPortfolio(ctx, PortfolioOptions{Options: Options{MaxConflicts: 1 << 40}})
	cs := distinctSystem(7)
	pf.Assert(cs[:len(cs)-1]...)
	res, err := pf.Check(cs[len(cs)-1])
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusUnknown {
		t.Fatalf("cancelled race: %v, want unknown", res.Status)
	}
}

// TestPortfolioFloatParity checks float queries are not raced: the
// verdict equals the fresh stochastic search with the same seed.
func TestPortfolioFloatParity(t *testing.T) {
	x := sym.NewVar("f", 64)
	c := sym.NewBin(sym.OpFLt, x, sym.NewConst(0x4000000000000000, 64)) // f < 2.0
	opts := Options{FP: FPSearch, FPIterations: 10_000, RandSeed: 42}
	want, err := SolveContext(context.Background(), []sym.Expr{c}, opts)
	if err != nil {
		t.Fatal(err)
	}
	pf := NewPortfolio(context.Background(), PortfolioOptions{Options: opts})
	got, err := pf.CheckSeeded(c, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status {
		t.Fatalf("portfolio float %v, fresh %v", got.Status, want.Status)
	}
}

// TestPortfolioCacheNamespace checks portfolio entries don't collide
// with fresh-mode entries in a shared cache.
func TestPortfolioCacheNamespace(t *testing.T) {
	cache := NewCache(64)
	x := sym.NewVar("x", 8)
	system := []sym.Expr{sym.NewBin(sym.OpUlt, x, sym.NewConst(10, 8))}
	if _, err := cache.Solve(system, Options{MaxConflicts: 1000}); err != nil {
		t.Fatal(err)
	}
	pf := NewPortfolio(context.Background(), PortfolioOptions{
		Options: Options{MaxConflicts: 1000}, Cache: cache,
	})
	if _, err := pf.Check(system[0]); err != nil {
		t.Fatal(err)
	}
	st := pf.Stats()
	if st.CacheHits != 0 {
		t.Fatal("portfolio hit a fresh-mode cache entry")
	}
	if _, err := pf.Check(system[0]); err != nil {
		t.Fatal(err)
	}
	if st := pf.Stats(); st.CacheHits != 1 {
		t.Fatalf("repeat portfolio query missed its own entry: %+v", st)
	}
}
