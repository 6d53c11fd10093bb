package eval

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/bombs"
	"repro/internal/core"
	"repro/internal/tools"
)

// TestRunCellSharesSolvedQueries runs getpid under Angr and then under
// Angr-NoLib through RunCell: the second cell must read queries the
// first one solved from the process-wide tier, and its outcome must be
// the one a tierless engine reaches, counter for counter apart from the
// fields scrubOutcome drops. One engine worker and wall-clock limits far
// past what getpid needs keep both runs on the deterministic budgets.
func TestRunCellSharesSolvedQueries(t *testing.T) {
	b, ok := bombs.ByName("getpid")
	if !ok {
		t.Fatal("no getpid bomb")
	}
	profile := func(p tools.Profile) tools.Profile {
		p.Caps.Workers = 1
		p.Caps.SolverTimeout = 10 * time.Second
		p.Caps.TotalBudget = 2 * time.Minute
		return p
	}
	RunCell(b, profile(tools.Angr()), -1)
	nolib := profile(tools.AngrNoLib())
	shared := RunCell(b, nolib, -1).Outcome
	if shared.Stats.SharedCacheHits == 0 {
		t.Fatalf("getpid/Angr-NoLib read nothing from the cell tier: %+v", shared.Stats)
	}

	alone := core.New(b.Image(), b.BombAddr(), nolib.Caps).Explore(b.Benign)
	if alone.Stats.SharedCacheHits+alone.Stats.SharedCacheMisses != 0 {
		t.Fatalf("the tierless engine consulted a tier: %+v", alone.Stats)
	}
	if got, want := scrubOutcome(shared), scrubOutcome(alone); !reflect.DeepEqual(got, want) {
		t.Errorf("tier changed the outcome:\n  shared: %+v\n  alone:  %+v", got, want)
	}
}
