package service

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bombs"
	"repro/internal/cliopts"
	"repro/internal/eval"
	"repro/internal/solver"
	"repro/internal/tools"
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

// stockResolve resolves a stock profile with no per-query wall-clock
// timeout: the conflict budget, the FP iteration budget and the round
// cap bind, and none of them depends on how loaded the machine is. The
// total budget is raised far past what the extended bombs need and kept
// only as a safety net.
func stockResolve(name string) (tools.Profile, bool) {
	p, ok := tools.ByName(name)
	if !ok {
		return p, false
	}
	p.Caps.SolverTimeout = 0
	p.Caps.TotalBudget = 10 * time.Minute
	return p, true
}

// TestExtendedFleetGridMatchesSingleNode is the Table II-extended fleet
// acceptance differential: a two-replica fleet sharing one cache tier —
// both restricted to the extended category, as a sharded deployment
// would be — replays the extended grid, and every cell's verdict and
// label must be byte-identical to the same cell run in process. Both
// sides run the stock profiles through stockResolve, so no cell's
// outcome rests on a wall clock.
func TestExtendedFleetGridMatchesSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid fleet comparison is slow; run without -short")
	}
	tierDir := t.TempDir()
	engine := cliopts.Options{Workers: 2}

	_, tsA := newTestServer(t, Config{
		Workers: 2, QueueDepth: 128, Replica: "a", ResolveProfile: stockResolve,
		Categories:  []string{string(bombs.Extended)},
		SharedCache: solver.SharedTier(openTestTier(t, tierDir)),
	})
	_, tsB := newTestServer(t, Config{
		Workers: 2, QueueDepth: 128, Replica: "b", ResolveProfile: stockResolve,
		Categories:  []string{string(bombs.Extended)},
		SharedCache: solver.SharedTier(openTestTier(t, tierDir)),
		Peers:       []string{tsA.URL}, StealInterval: 50 * time.Millisecond,
	})

	fleetGrid, err := eval.RunTableIIExtendedFleet(engine, []string{tsA.URL, tsB.URL})
	if err != nil {
		t.Fatal(err)
	}

	// The single-node side: every cell through eval.RunCell under the
	// profile the replicas resolve, four cells at a time.
	type refCell struct {
		b    *bombs.Bomb
		p    tools.Profile
		cell *eval.Cell
	}
	var refs []*refCell
	for _, b := range bombs.TableIIExtended() {
		for _, name := range tools.Names() {
			p, _ := stockResolve(name)
			engine.Apply(&p.Caps)
			refs = append(refs, &refCell{b: b, p: p})
		}
	}
	next := make(chan *refCell)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				r.cell = eval.RunCell(r.b, r.p, -1)
			}
		}()
	}
	for _, r := range refs {
		next <- r
	}
	close(next)
	wg.Wait()

	var diffs []string
	for _, r := range refs {
		ref := r.cell
		got := fleetGrid.Cell(ref.Bomb, ref.Tool)
		if got == nil {
			diffs = append(diffs, fmt.Sprintf("%s/%s: missing from fleet grid", ref.Bomb, ref.Tool))
			continue
		}
		if got.Got != ref.Got || got.Mechanical != ref.Mechanical || got.Match != ref.Match {
			diffs = append(diffs, fmt.Sprintf("%s/%s: fleet {got %q mech %q match %v} vs single-node {got %q mech %q match %v}",
				ref.Bomb, ref.Tool, got.Got, got.Mechanical, got.Match, ref.Got, ref.Mechanical, ref.Match))
		}
		if got.Outcome.Verdict != ref.Outcome.Verdict {
			diffs = append(diffs, fmt.Sprintf("%s/%s: fleet verdict %s vs single-node %s",
				ref.Bomb, ref.Tool, got.Outcome.Verdict, ref.Outcome.Verdict))
		}
	}
	if len(diffs) > 0 {
		t.Fatalf("extended fleet grid diverged from single-node in %d cells:\n%s",
			len(diffs), strings.Join(diffs, "\n"))
	}
	t.Logf("%d cells compared", len(refs))
}
