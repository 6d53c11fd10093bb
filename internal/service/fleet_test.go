package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bombs"
	"repro/internal/cliopts"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/sharedcache"
	"repro/internal/solver"
)

func openTestTier(t *testing.T, dir string) *sharedcache.Tier {
	t.Helper()
	tier, err := sharedcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tier.Close() })
	return tier
}

// TestFleetStealsQueuedJobs wires a two-replica fleet: replica A's only
// worker is pinned by a long job, so its queued job must be stolen,
// executed and posted back by idle replica B.
func TestFleetStealsQueuedJobs(t *testing.T) {
	_, tsA := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4, ResolveProfile: slowResolver,
		Replica: "a",
	})
	_, tsB := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4, ResolveProfile: fastResolve,
		Replica: "b", Peers: []string{tsA.URL}, StealInterval: 20 * time.Millisecond,
	})

	// Pin A's worker, then queue the job B should steal.
	_, blocker := postJob(t, tsA, Request{Bomb: "sha1", Tool: "reference", Options: cliopts.Options{Workers: 1}})
	waitState(t, tsA, blocker.ID, StateRunning, 10*time.Second)
	_, victim := postJob(t, tsA, Request{Bomb: "jump", Tool: "reference", Options: cliopts.Options{Workers: 1}})

	done := waitState(t, tsA, victim.ID, StateDone, 30*time.Second)
	if done.Replica != "b" {
		t.Errorf("stolen job replica %q, want %q", done.Replica, "b")
	}
	if done.Result == nil || done.Result.Verdict != "unreachable" {
		t.Fatalf("stolen job result: %+v", done.Result)
	}
	if r := cancelJob(t, tsA, blocker.ID); r.StatusCode != http.StatusOK {
		t.Fatalf("cancel blocker: %d", r.StatusCode)
	}

	if v := metricValue(t, tsA, "concolicd_steal_leased_total"); v < 1 {
		t.Errorf("victim leased counter = %v, want >= 1", v)
	}
	if v := metricValue(t, tsA, "concolicd_steal_remote_results_total"); v < 1 {
		t.Errorf("victim remote-results counter = %v, want >= 1", v)
	}
	if v := metricValue(t, tsB, "concolicd_steal_stolen_total"); v < 1 {
		t.Errorf("stealer stolen counter = %v, want >= 1", v)
	}
}

// TestStolenJobCountersReachOwner: a stolen job's engine counters travel
// back in its wire result and land on the owner's /metrics, exactly as a
// local job's would.
func TestStolenJobCountersReachOwner(t *testing.T) {
	_, tsA := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4, ResolveProfile: slowResolver,
		Replica: "a",
	})
	newTestServer(t, Config{
		Workers: 1, QueueDepth: 4, ResolveProfile: fastResolve,
		Replica: "b", Peers: []string{tsA.URL}, StealInterval: 20 * time.Millisecond,
	})

	// The blocker keeps A's worker busy and has not finished, so A's
	// engine counters hold the stolen job's alone.
	_, blocker := postJob(t, tsA, Request{Bomb: "sha1", Tool: "reference", Options: cliopts.Options{Workers: 1}})
	waitState(t, tsA, blocker.ID, StateRunning, 10*time.Second)
	_, victim := postJob(t, tsA, Request{Bomb: "jump", Tool: "reference", Options: cliopts.Options{Workers: 1}})
	done := waitState(t, tsA, victim.ID, StateDone, 30*time.Second)
	if done.Replica != "b" || done.Result == nil {
		t.Fatalf("victim not stolen: replica %q result %+v", done.Replica, done.Result)
	}
	st := done.Result.Stats
	for name, want := range map[string]int{
		"concolicd_engine_rounds_total":       done.Result.Rounds,
		"concolicd_solver_queries_total":      st.SolverQueries,
		"concolicd_solver_cache_misses_total": int(st.CacheMisses),
		"concolicd_cover_edges_total":         st.CoveredEdges,
	} {
		if got := metricValue(t, tsA, name); got != float64(want) || want == 0 {
			t.Errorf("owner %s = %v, want the stolen job's %d (nonzero)", name, got, want)
		}
	}
	if r := cancelJob(t, tsA, blocker.ID); r.StatusCode != http.StatusOK {
		t.Fatalf("cancel blocker: %d", r.StatusCode)
	}
}

// TestStealLeaseExpiry kills the stealer instead: a leased job whose
// replica never reports back is requeued by the lease reaper and
// finishes locally.
func TestStealLeaseExpiry(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4, ResolveProfile: slowResolver,
		Replica: "victim", StealLease: 300 * time.Millisecond,
	})

	_, blocker := postJob(t, ts, Request{Bomb: "sha1", Tool: "reference", Options: cliopts.Options{Workers: 1}})
	waitState(t, ts, blocker.ID, StateRunning, 10*time.Second)
	_, victim := postJob(t, ts, Request{Bomb: "jump", Tool: "reference", Options: cliopts.Options{Workers: 1}})

	// A "stealer" leases the queued job and then dies.
	body, _ := json.Marshal(StealRequest{Replica: "ghost", Max: 1})
	resp, err := http.Post(ts.URL+"/v1/steal", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr StealResponse
	json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if len(sr.Jobs) != 1 || sr.Jobs[0].ID != victim.ID || sr.Jobs[0].Req.Bomb != "jump" {
		t.Fatalf("steal response: %+v", sr)
	}
	if v := getJob(t, ts, victim.ID); v.State != StateRunning || v.Replica != "ghost" {
		t.Fatalf("leased job view: %+v", v)
	}

	// Past the lease the reaper requeues; release the worker and the job
	// finishes locally.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v := getJob(t, ts, victim.ID); v.State == StateQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(25 * time.Millisecond)
	}
	if r := cancelJob(t, ts, blocker.ID); r.StatusCode != http.StatusOK {
		t.Fatalf("cancel blocker: %d", r.StatusCode)
	}
	done := waitState(t, ts, victim.ID, StateDone, 30*time.Second)
	if done.Replica != "" {
		t.Errorf("locally rerun job still tagged replica %q", done.Replica)
	}
	if v := metricValue(t, ts, "concolicd_steal_lease_expired_total"); v < 1 {
		t.Errorf("lease-expired counter = %v, want >= 1", v)
	}
}

// TestSharedTierWarmMajority is the cross-replica cache differential:
// replica A solves a batch cold, then a fresh replica B sharing the
// same tier directory reruns the identical batch. B's metrics must show
// the majority of its negation queries answered by shared-tier-born
// results rather than re-solved.
func TestSharedTierWarmMajority(t *testing.T) {
	tierDir := t.TempDir()

	var batch []Request
	for _, b := range bombs.TableII() {
		if b.Name == "sha1" || b.Name == "aes" {
			continue
		}
		batch = append(batch, Request{Bomb: b.Name, Tool: "reference", Options: cliopts.Options{Workers: 1}})
		if len(batch) == 4 {
			break
		}
	}

	run := func(ts *httptest.Server) {
		t.Helper()
		var ids []string
		for _, req := range batch {
			_, v := postJob(t, ts, req)
			ids = append(ids, v.ID)
		}
		for _, id := range ids {
			waitState(t, ts, id, StateDone, 60*time.Second)
		}
	}

	_, tsA := newTestServer(t, Config{
		Workers: 2, QueueDepth: 8, ResolveProfile: fastResolve,
		SharedCache: solver.SharedTier(openTestTier(t, tierDir)),
	})
	run(tsA)
	if v := metricValue(t, tsA, "concolicd_sharedcache_stores_total"); v < 1 {
		t.Fatalf("cold replica stored %v shared entries, want >= 1", v)
	}

	_, tsB := newTestServer(t, Config{
		Workers: 2, QueueDepth: 8, ResolveProfile: fastResolve,
		SharedCache: solver.SharedTier(openTestTier(t, tierDir)),
	})
	run(tsB)

	queries := metricValue(t, tsB, "concolicd_solver_queries_total")
	served := metricValue(t, tsB, "concolicd_sharedcache_served_total")
	if queries < 1 {
		t.Fatalf("warm replica reported %v negation queries", queries)
	}
	if 2*served <= queries {
		t.Errorf("warm replica served %v of %v queries from the shared tier; want a majority", served, queries)
	}
}

// TestFleetGridMatchesSingleNode is the fleet acceptance differential:
// a two-replica fleet sharing one cache tier replays the full Table II
// grid, and every cell's verdict and label must be byte-identical to
// the single-node in-process grid, and so must the work counters of
// every cell not cut short by a wall-clock budget.
func TestFleetGridMatchesSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid fleet comparison is slow; run without -short")
	}
	tierDir := t.TempDir()

	_, tsA := newTestServer(t, Config{
		Workers: 2, QueueDepth: 64, Replica: "a",
		SharedCache: solver.SharedTier(openTestTier(t, tierDir)),
	})
	_, tsB := newTestServer(t, Config{
		Workers: 2, QueueDepth: 64, Replica: "b",
		SharedCache: solver.SharedTier(openTestTier(t, tierDir)),
		Peers:       []string{tsA.URL}, StealInterval: 50 * time.Millisecond,
	})

	fleetGrid, err := eval.RunTableIIFleet(cliopts.Options{Workers: 2}, []string{tsA.URL, tsB.URL})
	if err != nil {
		t.Fatal(err)
	}
	refGrid := eval.RunTableII(eval.Options{Workers: 4, Engine: cliopts.Options{Workers: 2}})

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
			// The work counters ride the wire too, and match wherever the
			// exploration ends on its own. A budget-exhausted cell stops
			// when a wall-clock budget (TotalBudget, SolverTimeout) binds,
			// so how far it got depends on machine load (sha1/Angr has
			// ended after 5, 6 and 8 rounds under different loads).
			if ref.Outcome.Verdict == core.VerdictBudget {
				continue
			}
			gs, rs := got.Outcome.Stats, ref.Outcome.Stats
			for _, c := range []struct {
				name      string
				got, want int
			}{
				{"rounds", gs.Rounds, rs.Rounds},
				{"solver_queries", gs.SolverQueries, rs.SolverQueries},
				{"covered_edges", gs.CoveredEdges, rs.CoveredEdges},
				{"covered_blocks", gs.CoveredBlocks, rs.CoveredBlocks},
			} {
				if c.got != c.want {
					diffs = append(diffs, fmt.Sprintf("%s/%s: fleet %s %d vs single-node %d",
						b.Name, tool, c.name, c.got, c.want))
				}
			}
		}
	}
	if len(diffs) > 0 {
		t.Fatalf("fleet grid diverged from single-node in %d cells:\n%s",
			len(diffs), strings.Join(diffs, "\n"))
	}
}
