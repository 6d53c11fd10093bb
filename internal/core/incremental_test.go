package core

import (
	"strings"
	"testing"
)

// incrementalCaps is the reference tool running its negation queries on
// per-round incremental sessions, sequentially (the configuration whose
// runs are fully deterministic).
func incrementalCaps() Capabilities {
	caps := referenceCaps()
	caps.SolverMode = SolverIncremental
	caps.Workers = 1
	return caps
}

// TestIncrementalSolvesCoreBombs cracks a representative bomb slice with
// incremental sessions and replays each solving input; incremental
// models may differ from fresh ones, but they must still detonate.
func TestIncrementalSolvesCoreBombs(t *testing.T) {
	for _, name := range []string{
		"fig3_plain", "arglen", "stack", "array1", "jumptab", "time",
	} {
		name := name
		t.Run(name, func(t *testing.T) {
			out := crack(t, name, incrementalCaps())
			if out.Verdict != VerdictSolved {
				t.Fatalf("verdict = %v (rounds %d, incidents %v, detail %s)",
					out.Verdict, out.Rounds, out.Incidents, out.CrashDetail)
			}
			verify(t, name, out)
		})
	}
}

// TestIncrementalStatsPopulated checks the session counters flow into
// Outcome.Stats under SolverIncremental — and stay zero under
// SolverFresh.
func TestIncrementalStatsPopulated(t *testing.T) {
	out := crack(t, "array1", incrementalCaps())
	s := out.Stats
	if s.SolverSessions == 0 {
		t.Error("no sessions opened under SolverIncremental")
	}
	if s.IncrementalChecks == 0 {
		t.Error("no incremental checks recorded")
	}
	if s.GuardLiterals == 0 {
		t.Error("no guard literals recorded")
	}
	if s.IncrementalChecks > s.SolverQueries {
		t.Errorf("incremental checks %d exceed solver queries %d",
			s.IncrementalChecks, s.SolverQueries)
	}

	fresh := crack(t, "array1", referenceCaps())
	fs := fresh.Stats
	if fs.SolverSessions != 0 || fs.IncrementalChecks != 0 || fs.GuardLiterals != 0 || fs.LearnedClausesRetained != 0 {
		t.Errorf("fresh mode reported incremental work: %+v", fs)
	}
}

// TestIncrementalRepeatable runs the same incremental exploration twice
// and requires identical verdicts and solving inputs: at a fixed worker
// count an incremental run is a pure function of the seed.
func TestIncrementalRepeatable(t *testing.T) {
	a := crack(t, "jumptab", incrementalCaps())
	b := crack(t, "jumptab", incrementalCaps())
	if a.Verdict != b.Verdict {
		t.Fatalf("verdicts differ across identical runs: %v vs %v", a.Verdict, b.Verdict)
	}
	if inputKey(a.Input) != inputKey(b.Input) {
		t.Errorf("solving inputs differ across identical runs: %+v vs %+v", a.Input, b.Input)
	}
	if a.Rounds != b.Rounds {
		t.Errorf("round counts differ: %d vs %d", a.Rounds, b.Rounds)
	}
}

// TestParseSolverMode covers the flag-value mapping and its error text.
func TestParseSolverMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SolverMode
	}{
		{"", SolverFresh}, {"fresh", SolverFresh},
		{"incremental", SolverIncremental},
	} {
		got, err := ParseSolverMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSolverMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("SolverMode(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseSolverMode("z3"); err == nil {
		t.Fatal("ParseSolverMode accepted an unknown mode")
	} else {
		for _, name := range SolverModeNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not list mode %q", err, name)
			}
		}
	}
}
