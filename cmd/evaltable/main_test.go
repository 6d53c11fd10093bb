package main

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/cliopts"
)

// TestWorkersHelpNamesGridCells checks `evaltable -h` describes -workers
// as the grid fan-out it is, not as the engine's exploration rounds.
func TestWorkersHelpNamesGridCells(t *testing.T) {
	fs := flag.NewFlagSet("evaltable", flag.ContinueOnError)
	registerOptions(fs)
	usage := fs.Lookup("workers").Usage
	if !strings.Contains(usage, "grid cells") || strings.Contains(usage, "exploration rounds") {
		t.Errorf("-workers help = %q", usage)
	}
}

// TestFleetRejectsWorkers checks a non-zero -workers with -fleet is a
// usage error instead of being dropped, and that -workers never reaches
// a cell's engine.
func TestFleetRejectsWorkers(t *testing.T) {
	if _, err := engineOptions(cliopts.Options{Workers: 2}, true); err == nil ||
		!strings.Contains(err.Error(), "-workers") || !strings.Contains(err.Error(), "-fleet") {
		t.Errorf("-fleet -workers 2: error %v", err)
	}
	want := cliopts.Options{Strategy: "coverage", Fuzz: true, CoverGoal: 0.5}
	for _, fleet := range []bool{false, true} {
		got, err := engineOptions(want, fleet)
		if err != nil || got != want {
			t.Errorf("fleet=%v: engine options %+v, %v; want %+v", fleet, got, err, want)
		}
	}
	withWorkers := want
	withWorkers.Workers = 4
	if got, err := engineOptions(withWorkers, false); err != nil || got != want {
		t.Errorf("-workers 4: engine options %+v, %v; want %+v", got, err, want)
	}
	if _, err := engineOptions(cliopts.Options{Workers: -1}, false); err == nil ||
		!strings.Contains(err.Error(), "-workers must be non-negative") {
		t.Errorf("-workers -1: error %v", err)
	}
}
