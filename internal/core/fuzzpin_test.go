package core_test

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/bombs"
	"repro/internal/core"
	"repro/internal/tools"
)

// coverageFuzzHash fingerprints the coverage-fuzz outcomes below. How a
// fuzz mutant is executed (recorded trace or coverage-only) must never
// move it: the mutation stream, the promotions, the detonations and
// every counter are functions of what the runs cover. It may only
// change together with a deliberate change to the search.
const coverageFuzzHash = 0x98402a09d2a79960

// unpinnedStats names the counters the pin leaves out: the wall time,
// the arena counters (process-wide, so they depend on what ran before)
// and the counters that describe how the guest's memory and runs were
// shared rather than what the search did.
var unpinnedStats = map[string]bool{
	"wall_ms": true, "intern_hits": true, "intern_misses": true, "arena_nodes": true,
	"checkpoint_resumes": true, "pages_cow_faulted": true,
}

// TestCoverageFuzzOutcomePinned runs every non-stress bomb as
// `concolic -tool angr-nolib -strategy coverage -fuzz -workers 1` does
// and hashes the verdict, the input, the round count, the fault inputs
// and every core.Stats counter outside unpinnedStats, by name. A counter
// added to or removed from the schema outside that set moves the hash.
// Only conflict, round and step budgets decide the outcome: the profile's
// per-query wall-clock timeout is off, and its total budget is raised far
// above the test's run time, kept only as a safety net, so machine load
// cannot move the hash.
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
		caps.SolverTimeout = 0
		caps.TotalBudget = 10 * time.Minute
		out := core.New(b.Image(), b.BombAddr(), caps).Explore(b.Benign)
		fmt.Fprintf(h, "%s|%v|%+v|%d|%+v", b.Name, out.Verdict, out.Input, out.Rounds, out.FaultInputs)
		for _, f := range core.StatFields() {
			if !unpinnedStats[f.Name] {
				fmt.Fprintf(h, "|%s=%s", f.Name, f.Format(&out.Stats))
			}
		}
		fmt.Fprintln(h)
	}
	if got := h.Sum64(); got != coverageFuzzHash {
		t.Errorf("coverage-fuzz outcome hash %#x, want %#x", got, uint64(coverageFuzzHash))
	}
}
