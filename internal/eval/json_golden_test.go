package eval

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bombs"
	"repro/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenGrid hand-builds a small deterministic grid spanning both corpus
// kinds: one paper row with a comparison column and one extended row
// carrying the category/taxonomy fields. No engine runs, so the marshaled
// report is byte-stable.
func goldenGrid(t *testing.T) *Grid {
	t.Helper()
	jump, ok := bombs.ByName("jump")
	if !ok {
		t.Fatal("no bomb jump")
	}
	stwrite, ok := bombs.ByName("stwrite")
	if !ok {
		t.Fatal("no bomb stwrite")
	}

	mkOutcome := func(v core.Verdict, rounds, queries int) *core.Outcome {
		out := &core.Outcome{Verdict: v, Rounds: rounds}
		out.Stats.Rounds = rounds
		out.Stats.SolverQueries = queries
		out.Stats.CacheHits = 7
		out.Stats.CacheMisses = 3
		out.Stats.InternHits = 100
		out.Stats.InternMisses = 50
		out.Stats.ArenaNodes = 50
		out.Stats.CoveredEdges = 12
		out.Stats.CoveredBlocks = 9
		out.Stats.WallTime = 125 * time.Millisecond
		out.Stats.NewEdgesPerRound = []int{8, 3, 1}
		return out
	}

	g := &Grid{
		Title:    "GOLDEN",
		HasPaper: false,
		Tools:    []string{"T1", "T2"},
		Rows:     []*bombs.Bomb{jump, stwrite},
		Cells: map[string]map[string]*Cell{
			"jump": {
				"T1": {Bomb: "jump", Tool: "T1", Mechanical: bombs.OK, Got: bombs.OK,
					Outcome: mkOutcome(core.VerdictSolved, 3, 5)},
				"T2": {Bomb: "jump", Tool: "T2", Mechanical: bombs.Es1, Got: bombs.Es1,
					Outcome: mkOutcome(core.VerdictUnreachable, 2, 2)},
			},
			"stwrite": {
				"T1": {Bomb: "stwrite", Tool: "T1", Mechanical: bombs.Es3, Got: bombs.Es3,
					Outcome: mkOutcome(core.VerdictUnreachable, 4, 6)},
				"T2": {Bomb: "stwrite", Tool: "T2", Mechanical: bombs.OK, Got: bombs.OK,
					Overridden: true, Note: "documented idiosyncrasy",
					Outcome: mkOutcome(core.VerdictSolved, 5, 9)},
			},
		},
	}
	return g
}

// TestGridJSONGolden pins the evaltable -json schema against a golden
// file: any field rename, reorder, or serialization change to the grid
// report — including the category and taxonomy row fields the extended
// corpus introduced — shows up as a readable diff. Regenerate with
// go test ./internal/eval -run TestGridJSONGolden -update.
func TestGridJSONGolden(t *testing.T) {
	raw, err := MarshalGrid(goldenGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')

	golden := filepath.Join("testdata", "grid_json.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(raw, want) {
		t.Errorf("grid JSON schema drifted from golden file %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, raw, want)
	}

	// The extended row must carry its corpus metadata in the report.
	doc := ToJSON(goldenGrid(t))
	var found bool
	for _, row := range doc.Rows {
		if row.Bomb != "stwrite" {
			continue
		}
		found = true
		if row.Category != string(bombs.Extended) {
			t.Errorf("stwrite row category %q, want %q", row.Category, bombs.Extended)
		}
		if row.Taxonomy == "" {
			t.Error("stwrite row lost its taxonomy slug")
		}
	}
	if !found {
		t.Fatal("stwrite row missing from report")
	}
}

// TestGridJSONStatsKeysKept pins the aggregate stats keys evaltable
// -json emits, with their golden values: the counter schema may add
// keys, never rename one, and drops one only together with the
// behaviour it counts.
func TestGridJSONStatsKeysKept(t *testing.T) {
	raw, err := MarshalGrid(goldenGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Stats map[string]float64 `json:"stats"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"cells": 4, "rounds": 14, "solver_queries": 22, "cache_hits": 28,
		"cache_misses": 12, "cache_evictions": 0, "cache_hit_rate": 0.7,
		"intern_hits": 400, "intern_misses": 200, "intern_hit_rate": 400.0 / 600,
		"arena_nodes": 50, "pages_cow_faulted": 0, "covered_edges": 48, "covered_blocks": 36,
		"fuzz_execs": 0, "fuzz_seeds_promoted": 0, "wall_ms": 500,
	} {
		if got, ok := doc.Stats[key]; !ok || got != want {
			t.Errorf("stats.%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
}
