package core_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/bombs"
	"repro/internal/core"
	"repro/internal/tools"
)

// coverageFuzzHash fingerprints the coverage-fuzz outcomes below. How a
// fuzz mutant is executed (recorded trace or coverage-only, fresh or
// resumed) must never move it: the mutation stream, the promotions, the
// detonations and every counter are functions of what the runs cover. It
// may only change together with a deliberate change to the search, or
// with the counter schema, whose JSON it hashes.
const coverageFuzzHash = 0x33b26a03cd12b918

// TestCoverageFuzzOutcomePinned runs every non-stress bomb as
// `concolic -tool angr-nolib -strategy coverage -fuzz -workers 1` does
// and hashes the verdict, the input, the round count, the fault inputs
// and every core.Stats counter except the wall time and the arena
// counters (process-wide, so they depend on what ran before).
func TestCoverageFuzzOutcomePinned(t *testing.T) {
	h := fnv.New64a()
	for _, b := range bombs.All() {
		if b.Category == bombs.Stress {
			continue
		}
		caps := tools.AngrNoLib().Caps
		caps.Search = core.SearchCoverage
		caps.Fuzz = true
		caps.FuzzSeed = 0
		caps.Workers = 1
		out := core.New(b.Image(), b.BombAddr(), caps).Explore(b.Benign)
		st := out.Stats
		st.WallTime = 0
		st.InternHits, st.InternMisses, st.ArenaNodes = 0, 0, 0
		js, err := json.Marshal(&st)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s|%v|%+v|%d|%+v|%s\n", b.Name, out.Verdict, out.Input, out.Rounds, out.FaultInputs, js)
	}
	if got := h.Sum64(); got != coverageFuzzHash {
		t.Errorf("coverage-fuzz outcome hash %#x, want %#x", got, coverageFuzzHash)
	}
}

// TestBreedPrefixAlreadyCovered gates the invariant coverage-only fuzz
// mutants and resumed rounds rely on: their coverage sets leave out the
// prefix they replay from a parent's snapshot, which is exact only if
// the parent's whole run was merged before the parent could be resumed
// from. It checks after every merged round (and so after every breed)
// that each corpus entry's and frontier candidate's replay plan traces
// a run the engine's tracker already holds.
func TestBreedPrefixAlreadyCovered(t *testing.T) {
	for _, name := range []string{"loop", "array2", "thread", "fork", "exception", "jumptab"} {
		b, ok := bombs.ByName(name)
		if !ok {
			t.Fatalf("no bomb %s", name)
		}
		caps := tools.AngrNoLib().Caps
		caps.Search = core.SearchCoverage
		caps.Fuzz = true
		caps.Workers = 1
		var en *core.Engine
		checked := 0
		caps.Progress = func(core.Progress) {
			plans, uncovered := en.UncoveredPlanRuns()
			checked += plans
			if uncovered > 0 {
				t.Errorf("%s: replay plans hold %d edges and blocks the tracker never merged", name, uncovered)
			}
		}
		en = core.New(b.Image(), b.BombAddr(), caps)
		out := en.Explore(b.Benign)
		if out.Stats.FuzzExecs == 0 || checked == 0 {
			t.Errorf("%s: nothing to check: %d fuzz execs, %d plans", name, out.Stats.FuzzExecs, checked)
		}
		t.Logf("%s: %d rounds, %d fuzz execs, %d promoted, %d plan checks", name, out.Rounds, out.Stats.FuzzExecs, out.Stats.FuzzSeedsPromoted, checked)
	}
}
