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

// referenceFPHash fingerprints the Reference profile's outcomes on the
// float bombs below, whose negation queries go to the FP local search.
// It may only change together with a deliberate change to that search
// or to the engine around it.
const referenceFPHash = 0x4451ebaa30079804

// TestReferenceFPOutcomePinned runs the Reference profile on fplaunder,
// powlaunder and float and hashes the verdict, the round count, the
// input and every core.Stats counter outside unpinnedStats, by name.
// Only iteration, conflict and round budgets decide the outcome: the
// per-query wall-clock timeout is off, and the total budget is kept far
// above the test's run time as a safety net. The iteration and round
// budgets are cut from the profile's so the test stays short.
func TestReferenceFPOutcomePinned(t *testing.T) {
	h := fnv.New64a()
	for _, name := range []string{"fplaunder", "powlaunder", "float"} {
		b, ok := bombs.ByName(name)
		if !ok {
			t.Fatalf("no bomb %q", name)
		}
		caps := tools.Reference().Caps
		caps.Workers = 1
		caps.SolverTimeout = 0
		caps.FPIterations = 20_000
		caps.MaxRounds = 12
		caps.TotalBudget = 10 * time.Minute
		out := core.New(b.Image(), b.BombAddr(), caps).Explore(b.Benign)
		fmt.Fprintf(h, "%s|%v|%d|%+v", name, out.Verdict, out.Rounds, out.Input)
		for _, f := range core.StatFields() {
			if !unpinnedStats[f.Name] {
				fmt.Fprintf(h, "|%s=%s", f.Name, f.Format(&out.Stats))
			}
		}
		fmt.Fprintln(h)
		t.Logf("%s: %v after %d rounds", name, out.Verdict, out.Rounds)
	}
	if got := h.Sum64(); got != referenceFPHash {
		t.Errorf("Reference FP outcome hash %#x, want %#x", got, uint64(referenceFPHash))
	}
}
