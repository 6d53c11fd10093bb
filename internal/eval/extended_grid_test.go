package eval

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/bombs"
	"repro/internal/core"
	"repro/internal/tools"
)

// fastExtended returns the five extended-grid profiles under the usual
// differential budgets: FastBudgets for the deterministic bounds, with
// the wall-clock limits raised far past what the corpus needs so that
// CPU sharing between concurrent cells can never flip a verdict.
func fastExtended() []tools.Profile {
	var fast []tools.Profile
	for _, p := range tools.TableIIExtended() {
		p = tools.FastBudgets(p)
		p.Caps.TotalBudget = 2 * time.Minute
		p.Caps.SolverTimeout = 10 * time.Second
		fast = append(fast, p)
	}
	return fast
}

// TestGridExtendedDeterministic runs the Table II-extended grid through
// the cell worker pool at 1, 4 and 8 workers and requires byte-identical
// scrubbed outcomes and identical rendered tables — the ISSUE 9
// determinism acceptance. The extended corpus has no crypto bombs, so no
// rows are excluded.
func TestGridExtendedDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("extended grid comparison is slow; run without -short")
	}
	rows := bombs.TableIIExtended()

	grids := map[int]*Grid{}
	for _, w := range []int{1, 4, 8} {
		grids[w] = runGrid(fastExtended(), rows, w, false)
	}
	base := grids[1]
	for _, w := range []int{4, 8} {
		g := grids[w]
		if got, want := RenderTableII(g), RenderTableII(base); got != want {
			t.Errorf("workers=%d renders a different table than workers=1:\n%s\nvs\n%s", w, got, want)
		}
		for _, b := range base.Rows {
			for _, tool := range base.Tools {
				cb, cw := base.Cell(b.Name, tool), g.Cell(b.Name, tool)
				if cb == nil || cw == nil {
					t.Fatalf("%s/%s: missing cell (workers=1 %v, workers=%d %v)",
						tool, b.Name, cb != nil, w, cw != nil)
				}
				if cb.Got != cw.Got || cb.Mechanical != cw.Mechanical {
					t.Errorf("%s/%s: workers=1 %s (mech %s), workers=%d %s (mech %s)",
						tool, b.Name, cb.Got, cb.Mechanical, w, cw.Got, cw.Mechanical)
				}
				sb, sw := scrubOutcome(cb.Outcome), scrubOutcome(cw.Outcome)
				if !reflect.DeepEqual(sb, sw) {
					t.Errorf("%s/%s: outcomes differ between workers=1 and workers=%d:\n  1: %+v\n  %d: %+v",
						tool, b.Name, w, sb, w, sw)
				}
			}
		}
	}
}

// TestGridExtendedDifferential replays the extended grid under the
// coverage-guided search with the hybrid fuzz stage and the
// checkpointing scheduler — the full optimisation stack — against the
// plain generational baseline, and requires every cell to
// stay identical or strictly strengthen, exactly as the Table II
// coverage differential does.
func TestGridExtendedDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential grid is slow; run without -short")
	}
	rows := bombs.TableIIExtended()
	fast := fastExtended()

	gen := runGrid(withSearch(fast, core.SearchGenerational, false), rows, 0, false)

	stacked := withSearch(fast, core.SearchCoverage, true)
	for i := range stacked {
		stacked[i].Caps.Checkpoint = core.CheckpointAuto
	}
	cov := runGrid(stacked, rows, 0, false)

	solved := diffCoverageLabels(t, cov, gen)
	// The comparison would hold trivially on an all-error grid; require
	// that the stacked run actually detonated bombs.
	if solved == 0 {
		t.Error("stacked extended grid solved no cells")
	}
}
