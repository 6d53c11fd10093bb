package core_test

// Black-box tests for the parallel scheduler (package core_test: the
// tools package imports core, so profile-driven tests cannot live inside
// package core).

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/bombs"
	"repro/internal/core"
	"repro/internal/sym"
	"repro/internal/tools"
)

// exploreWith runs one bomb under a profile with the given worker count.
func exploreWith(b *bombs.Bomb, p tools.Profile, workers int) *core.Outcome {
	caps := p.Caps
	caps.Workers = workers
	en := core.New(b.Image(), b.BombAddr(), caps)
	return en.Explore(b.Benign)
}

// TestExploreDeterministicAcrossWorkers asserts the paper-facing verdict
// is independent of the worker count: every Table II bomb, under every
// Table II tool profile and the reference profile, must land on the same
// Verdict and solving input with Workers=1 (the historical sequential
// loop) and Workers=8. The reference profile searches depth-first, one
// round per batch, so it also runs at Workers=2 and its round count must
// match too, unless the task wall-clock budget cut a run short.
// FastBudgets keeps the grid tractable; budget-direction outcomes are
// unaffected. Its wall-clock budgets make a cell sensitive to machine
// load, so the reference cells run one at a time, before the Table II
// cells run in parallel, and add no load to them.
func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	for _, p := range append(tools.TableII(), tools.Reference()) {
		p := tools.FastBudgets(p)
		dfs := p.Caps.Search == core.SearchDFS
		counts := []int{8}
		if dfs {
			counts = []int{2, 8}
		}
		for _, b := range bombs.TableII() {
			b := b
			t.Run(p.Name()+"/"+b.Name, func(t *testing.T) {
				if !dfs {
					t.Parallel()
				}
				seq := exploreWith(b, p, 1)
				for _, workers := range counts {
					par := exploreWith(b, p, workers)
					if seq.Verdict != par.Verdict {
						t.Errorf("workers=1 verdict %v, workers=%d verdict %v",
							seq.Verdict, workers, par.Verdict)
					}
					if seq.Verdict == core.VerdictSolved && par.Input.Argv1 != seq.Input.Argv1 {
						t.Errorf("workers=%d: solving inputs diverge: %q vs %q",
							workers, seq.Input.Argv1, par.Input.Argv1)
					}
					if dfs && seq.Rounds != par.Rounds && !wallClockCut(seq) && !wallClockCut(par) {
						t.Errorf("workers=1 ran %d rounds, workers=%d ran %d",
							seq.Rounds, workers, par.Rounds)
					}
				}
			})
		}
	}
}

// wallClockCut reports whether a wall-clock budget ended the run, which
// leaves its round count to machine load.
func wallClockCut(o *core.Outcome) bool {
	return o.Verdict == core.VerdictBudget && strings.HasPrefix(o.CrashDetail, "analysis timeout")
}

// TestExploreRepeatableAtFixedWorkerCount asserts a fixed worker count
// reproduces not just the verdict but the whole observable outcome.
func TestExploreRepeatableAtFixedWorkerCount(t *testing.T) {
	p := tools.FastBudgets(tools.Angr())
	b, ok := bombs.ByName("array1")
	if !ok {
		t.Fatal("array1 missing")
	}
	for _, workers := range []int{1, 4} {
		a := exploreWith(b, p, workers)
		c := exploreWith(b, p, workers)
		if a.Verdict != c.Verdict || a.Rounds != c.Rounds ||
			a.CandidatesTried != c.CandidatesTried ||
			len(a.Incidents) != len(c.Incidents) {
			t.Errorf("workers=%d: outcomes differ: %+v vs %+v", workers, a, c)
		}
	}
}

// TestExploreParallelSolvesUnderRace exercises the concurrent scheduler
// with several engines running at once; `go test -race` makes this the
// data-race gate for the worker pool and the shared solver cache.
func TestExploreParallelSolvesUnderRace(t *testing.T) {
	var wg sync.WaitGroup
	// jump is deliberately absent: under FastBudgets the reference DFS
	// profile exhausts the 12-round cap before reaching its detonation at
	// every worker count, so it cannot assert VerdictSolved here.
	for _, name := range []string{"array1", "arglen", "stack", "jumptab"} {
		name := name
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, ok := bombs.ByName(name)
			if !ok {
				t.Errorf("no bomb %s", name)
				return
			}
			out := exploreWith(b, tools.FastBudgets(tools.Reference()), 8)
			if out.Verdict != core.VerdictSolved {
				t.Errorf("%s: verdict %v (rounds %d)", name, out.Verdict, out.Rounds)
			}
		}()
	}
	wg.Wait()
}

// TestStatsPopulated checks the new Outcome.Stats block.
func TestStatsPopulated(t *testing.T) {
	b, _ := bombs.ByName("array1")
	out := exploreWith(b, tools.FastBudgets(tools.Angr()), 4)
	s := out.Stats
	if s.Rounds != out.Rounds {
		t.Errorf("Stats.Rounds %d != Outcome.Rounds %d", s.Rounds, out.Rounds)
	}
	if s.SolverQueries == 0 {
		t.Error("expected solver queries")
	}
	if s.Workers != 4 {
		t.Errorf("Workers = %d", s.Workers)
	}
	if s.WallTime <= 0 {
		t.Error("missing wall time")
	}
	if s.CacheHits+s.CacheMisses == 0 {
		t.Error("cache saw no lookups")
	}
}

// TestArenaConcurrentInterning hammers the sym hash-consing arena from
// the engine's worker count of goroutines, all building the same terms
// plus per-goroutine private ones. Every goroutine must receive the very
// same pointer for a shared term (whoever interns first wins, everyone
// else observes it), which is what keeps parallel rounds' expressions
// mergeable by pointer. Run under `make race` to check the sharded table
// for data races.
func TestArenaConcurrentInterning(t *testing.T) {
	workers := core.Capabilities{}.ResolvedWorkers()
	if workers < 4 {
		workers = 4
	}
	const rounds = 2000

	results := make([][]sym.Expr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]sym.Expr, rounds)
			for i := 0; i < rounds; i++ {
				// Shared across goroutines: same structure every round.
				x := sym.NewVar("shared", 64)
				e := sym.NewBin(sym.OpAdd,
					sym.NewBin(sym.OpMul, x, sym.NewConst(uint64(i%64)+2, 64)),
					sym.NewConst(uint64(i%17)+1, 64))
				out[i] = e
				// Private to this goroutine: must not collide.
				_ = sym.NewBin(sym.OpEq, sym.NewVar("w", 8), sym.NewConst(uint64(w), 8))
			}
			results[w] = out
		}()
	}
	wg.Wait()

	for w := 1; w < workers; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("goroutine %d round %d: interning returned a different pointer", w, i)
			}
		}
	}
}
