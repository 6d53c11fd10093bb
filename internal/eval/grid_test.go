package eval

import (
	"testing"
	"time"

	"repro/internal/bombs"
	"repro/internal/core"
	"repro/internal/tools"
)

// scrubOutcome strips the Outcome fields that legitimately differ
// between two explorations of the same cell: wall time, copied guest
// pages, and the sym intern counters, which are deltas against a
// process-global arena and therefore depend on what earlier grids
// already interned. Everything else — verdict, solving input, rounds,
// incidents, claims, solver-query and cache counters — must be
// byte-identical.
func scrubOutcome(o *core.Outcome) core.Outcome {
	c := *o
	c.Stats.WallTime = 0
	c.Stats.InternHits = 0
	c.Stats.InternMisses = 0
	c.Stats.ArenaNodes = 0
	c.Stats.PagesCOWFaulted = 0
	return c
}

// TestGridParallelMatchesSequential runs the Table II grid through the
// worker pool at two worker counts and requires cell-for-cell identical
// labels. Budgets are reduced to keep the test fast, but the wall-clock
// limits are raised well past what the included bombs need, so that CPU
// sharing between concurrent cells cannot flip a verdict: the binding
// bounds (round cap, conflict budget) are independent of scheduling.
// The two crypto bombs are excluded — without a wall-clock ceiling
// their conflict-bounded queries run for minutes.
func TestGridParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("grid comparison is slow; run without -short")
	}
	var fast []tools.Profile
	for _, p := range tools.TableII() {
		p = tools.FastBudgets(p)
		p.Caps.TotalBudget = 2 * time.Minute
		p.Caps.SolverTimeout = 10 * time.Second
		fast = append(fast, p)
	}
	var rows []*bombs.Bomb
	for _, b := range bombs.TableII() {
		if b.Name == "sha1" || b.Name == "aes" {
			continue
		}
		rows = append(rows, b)
	}
	seq := runGrid(fast, rows, 1, true)
	par := runGrid(fast, rows, 3, true)
	if len(seq.Tools) != len(par.Tools) || len(seq.Rows) != len(par.Rows) {
		t.Fatalf("grid shapes differ: %d/%d tools, %d/%d rows",
			len(seq.Tools), len(par.Tools), len(seq.Rows), len(par.Rows))
	}
	for _, b := range seq.Rows {
		for _, tool := range seq.Tools {
			s, p := seq.Cell(b.Name, tool), par.Cell(b.Name, tool)
			if s == nil || p == nil {
				t.Fatalf("%s/%s: missing cell (seq %v, par %v)", tool, b.Name, s != nil, p != nil)
			}
			if s.Bomb != b.Name || s.Tool != tool || p.Bomb != b.Name || p.Tool != tool {
				t.Errorf("%s/%s: cell assembled into the wrong slot", tool, b.Name)
			}
			if s.Got != p.Got || s.Mechanical != p.Mechanical {
				t.Errorf("%s/%s: workers=1 %s (mech %s), workers=3 %s (mech %s)",
					tool, b.Name, s.Got, s.Mechanical, p.Got, p.Mechanical)
			}
		}
	}
}
