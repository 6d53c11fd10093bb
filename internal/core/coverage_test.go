package core_test

// Black-box tests for the coverage-guided search strategy and the hybrid
// mutation-fuzzing stage (package core_test: the tools package imports
// core, so profile-driven tests cannot live inside package core).

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/bombs"
	"repro/internal/core"
	"repro/internal/tools"
)

func TestParseSearchStrategy(t *testing.T) {
	cases := []struct {
		in   string
		want core.SearchStrategy
	}{
		{"", core.SearchGenerational},
		{"generational", core.SearchGenerational},
		{"dfs", core.SearchDFS},
		{"coverage", core.SearchCoverage},
	}
	for _, c := range cases {
		got, err := core.ParseSearchStrategy(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseSearchStrategy(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := core.ParseSearchStrategy("bogus"); err == nil {
		t.Error("ParseSearchStrategy accepted an unknown strategy")
	} else if !strings.Contains(err.Error(), "generational") {
		t.Errorf("error %q does not list the known strategies", err)
	}
	names := core.SearchStrategyNames()
	if len(names) != 3 {
		t.Fatalf("SearchStrategyNames = %v", names)
	}
	for _, n := range names {
		s, err := core.ParseSearchStrategy(n)
		if err != nil {
			t.Errorf("listed name %q does not parse: %v", n, err)
		}
		if s.String() != n {
			t.Errorf("round trip: %q -> %v -> %q", n, s, s.String())
		}
	}
}

// coverageCaps is the coverage-search capability set the determinism grid
// runs under: a fixed fuzz seed makes the mutation stream part of the
// reproducibility contract.
func coverageCaps(p tools.Profile, fuzz bool, workers int) core.Capabilities {
	caps := p.Caps
	caps.Search = core.SearchCoverage
	caps.Fuzz = fuzz
	caps.FuzzSeed = 42
	caps.Workers = workers
	return caps
}

// observable projects the worker-count-invariant slice of an outcome.
// SolverQueries, cache traffic and PeakFrontier are deliberately absent:
// they depend on how much duplicate work a batch performs, which varies
// with the batch width even though the merged schedule does not.
type observable struct {
	Verdict           core.Verdict
	Input             string
	Rounds            int
	CandidatesTried   int
	TaintedPerRound   []int
	Incidents         int
	Claims            int
	CoveredEdges      int
	CoveredBlocks     int
	NewEdgesPerRound  []int
	FuzzExecs         int
	FuzzSeedsPromoted int
}

func observe(out *core.Outcome) observable {
	return observable{
		Verdict:           out.Verdict,
		Input:             out.Input.Argv1,
		Rounds:            out.Rounds,
		CandidatesTried:   out.CandidatesTried,
		TaintedPerRound:   out.TaintedPerRound,
		Incidents:         len(out.Incidents),
		Claims:            len(out.Claims),
		CoveredEdges:      out.Stats.CoveredEdges,
		CoveredBlocks:     out.Stats.CoveredBlocks,
		NewEdgesPerRound:  out.Stats.NewEdgesPerRound,
		FuzzExecs:         out.Stats.FuzzExecs,
		FuzzSeedsPromoted: out.Stats.FuzzSeedsPromoted,
	}
}

// TestCoverageDeterministicAcrossWorkers asserts SearchCoverage — with
// and without the fuzz stage — produces byte-identical observable
// outcomes at every worker count. The generational frontier design
// (score only at fully-merged generation boundaries, breed on the engine
// thread) is exactly what makes this hold; the test is its gate.
func TestCoverageDeterministicAcrossWorkers(t *testing.T) {
	for _, fuzz := range []bool{false, true} {
		name := "plain"
		if fuzz {
			name = "fuzz"
		}
		for _, bname := range []string{"array1", "arglen", "stack", "loop"} {
			b, ok := bombs.ByName(bname)
			if !ok {
				t.Fatalf("no bomb %s", bname)
			}
			p := tools.FastBudgets(tools.Reference())
			t.Run(name+"/"+bname, func(t *testing.T) {
				t.Parallel()
				var base observable
				for i, workers := range []int{1, 4, 8} {
					en := core.New(b.Image(), b.BombAddr(), coverageCaps(p, fuzz, workers))
					got := observe(en.Explore(b.Benign))
					if i == 0 {
						base = got
						continue
					}
					if !reflect.DeepEqual(got, base) {
						t.Errorf("workers=%d diverges from workers=1:\n got %+v\nwant %+v",
							workers, got, base)
					}
				}
			})
		}
	}
}

// TestCoverageSolves sanity-checks that the coverage strategy still
// detonates bombs the generational reference solves under FastBudgets.
func TestCoverageSolves(t *testing.T) {
	for _, bname := range []string{"array1", "arglen", "stack", "jumptab"} {
		b, ok := bombs.ByName(bname)
		if !ok {
			t.Fatalf("no bomb %s", bname)
		}
		en := core.New(b.Image(), b.BombAddr(), coverageCaps(tools.FastBudgets(tools.Reference()), false, 0))
		out := en.Explore(b.Benign)
		if out.Verdict != core.VerdictSolved {
			t.Errorf("%s: verdict %v (rounds %d)", bname, out.Verdict, out.Rounds)
		}
		if out.Stats.CoveredEdges == 0 || out.Stats.CoveredBlocks == 0 {
			t.Errorf("%s: no coverage recorded: %+v", bname, out.Stats)
		}
		if len(out.Stats.NewEdgesPerRound) == 0 || out.Stats.NewEdgesPerRound[0] == 0 {
			t.Errorf("%s: first round contributed no new edges: %v",
				bname, out.Stats.NewEdgesPerRound)
		}
	}
}

// TestCoverGoalStops asserts the early-stop path: a tiny block-fraction
// goal is met by the seed run alone and the engine reports
// VerdictCoverGoal instead of exploring on.
func TestCoverGoalStops(t *testing.T) {
	b, ok := bombs.ByName("loop")
	if !ok {
		t.Fatal("loop missing")
	}
	caps := coverageCaps(tools.FastBudgets(tools.Reference()), false, 1)
	caps.CoverGoal = 0.01
	en := core.New(b.Image(), b.BombAddr(), caps)
	out := en.Explore(b.Benign)
	if out.Verdict != core.VerdictCoverGoal {
		t.Fatalf("verdict %v, want %v (detail %q)", out.Verdict, core.VerdictCoverGoal, out.CrashDetail)
	}
	if out.Rounds != 1 {
		t.Errorf("goal met after round 1 but engine ran %d rounds", out.Rounds)
	}
	if !strings.Contains(out.CrashDetail, "coverage goal reached") {
		t.Errorf("detail %q", out.CrashDetail)
	}
}

// TestFuzzPromotesSeeds asserts the breed rounds actually run and feed
// the frontier on a bomb whose input space mutation explores well.
func TestFuzzPromotesSeeds(t *testing.T) {
	b, ok := bombs.ByName("loop")
	if !ok {
		t.Fatal("loop missing")
	}
	caps := coverageCaps(tools.FastBudgets(tools.Reference()), true, 1)
	caps.GrowArgv = true
	en := core.New(b.Image(), b.BombAddr(), caps)
	out := en.Explore(b.Benign)
	if out.Stats.FuzzExecs == 0 {
		t.Fatalf("no fuzz executions ran (verdict %v, rounds %d)", out.Verdict, out.Rounds)
	}
	if out.Stats.FuzzSeedsPromoted == 0 {
		t.Errorf("fuzzing promoted no seeds (execs %d)", out.Stats.FuzzExecs)
	}
}
