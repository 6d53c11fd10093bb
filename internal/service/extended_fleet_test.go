package service

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/bombs"
	"repro/internal/cliopts"
	"repro/internal/eval"
	"repro/internal/solver"
)

// TestCategoryFilterRejectsOtherCategories pins the -categories replica
// filter: a replica configured for the extended corpus accepts extended
// bombs, and refuses bombs from any other category with HTTP 400 before
// they reach the queue.
func TestCategoryFilterRejectsOtherCategories(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4, ResolveProfile: fastResolve,
		Categories: []string{string(bombs.Extended)},
	})

	resp, v := postJob(t, ts, Request{Bomb: "stwrite", Tool: "reference", Options: cliopts.Options{Workers: 1}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("extended bomb rejected: status %d", resp.StatusCode)
	}
	waitState(t, ts, v.ID, StateDone, 60*time.Second)

	resp, _ = postJob(t, ts, Request{Bomb: "jump", Tool: "reference", Options: cliopts.Options{Workers: 1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("accuracy bomb on an extended-only replica: status %d, want %d",
			resp.StatusCode, http.StatusBadRequest)
	}

	// Unknown bombs still fail validation, not the category filter.
	resp, _ = postJob(t, ts, Request{Bomb: "no-such-bomb", Tool: "reference", Options: cliopts.Options{Workers: 1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown bomb: status %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
}

// TestExtendedFleetGridMatchesSingleNode is the Table II-extended fleet
// acceptance differential: a two-replica fleet sharing one cache tier —
// both restricted to the extended category, as a sharded deployment
// would be — replays the extended grid, and every cell's verdict and
// label must be byte-identical to the single-node in-process grid.
func TestExtendedFleetGridMatchesSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid fleet comparison is slow; run without -short")
	}
	tierDir := t.TempDir()

	_, tsA := newTestServer(t, Config{
		Workers: 2, QueueDepth: 128, Replica: "a",
		Categories:  []string{string(bombs.Extended)},
		SharedCache: solver.SharedTier(openTestTier(t, tierDir)),
	})
	_, tsB := newTestServer(t, Config{
		Workers: 2, QueueDepth: 128, Replica: "b",
		Categories:  []string{string(bombs.Extended)},
		SharedCache: solver.SharedTier(openTestTier(t, tierDir)),
		Peers:       []string{tsA.URL}, StealInterval: 50 * time.Millisecond,
	})

	fleetGrid, err := eval.RunTableIIExtendedFleet(cliopts.Options{Workers: 2}, []string{tsA.URL, tsB.URL})
	if err != nil {
		t.Fatal(err)
	}
	refGrid := eval.RunTableIIExtended(eval.Options{Workers: 4, Engine: cliopts.Options{Workers: 2}})

	var diffs []string
	for _, b := range refGrid.Rows {
		for _, tool := range refGrid.Tools {
			ref := refGrid.Cell(b.Name, tool)
			got := fleetGrid.Cell(b.Name, tool)
			if got == nil {
				diffs = append(diffs, fmt.Sprintf("%s/%s: missing from fleet grid", b.Name, tool))
				continue
			}
			if got.Got != ref.Got || got.Mechanical != ref.Mechanical || got.Match != ref.Match {
				diffs = append(diffs, fmt.Sprintf("%s/%s: fleet {got %q mech %q match %v} vs single-node {got %q mech %q match %v}",
					b.Name, tool, got.Got, got.Mechanical, got.Match, ref.Got, ref.Mechanical, ref.Match))
			}
			if got.Outcome.Verdict != ref.Outcome.Verdict {
				diffs = append(diffs, fmt.Sprintf("%s/%s: fleet verdict %s vs single-node %s",
					b.Name, tool, got.Outcome.Verdict, ref.Outcome.Verdict))
			}
		}
	}
	if len(diffs) > 0 {
		t.Fatalf("extended fleet grid diverged from single-node in %d cells:\n%s",
			len(diffs), strings.Join(diffs, "\n"))
	}
}
