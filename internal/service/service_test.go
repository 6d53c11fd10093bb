package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/tools"
)

// newTestServer builds a service backed by httptest.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, req Request) (*http.Response, View) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	json.NewDecoder(resp.Body).Decode(&v)
	return resp, v
}

func getJob(t *testing.T, ts *httptest.Server, id string) View {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", id, resp.StatusCode)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitState polls a job until it reaches want (or any terminal state).
func waitState(t *testing.T, ts *httptest.Server, id string, want State, timeout time.Duration) View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := getJob(t, ts, id)
		if v.State == want {
			return v
		}
		if v.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s: state %s, want %s", id, v.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func cancelJob(t *testing.T, ts *httptest.Server, id string) *http.Response {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	resp, v := postJob(t, ts, Request{Bomb: "jump", Tool: "reference", Workers: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if v.ID == "" || (v.State != StateQueued && v.State != StateRunning) {
		t.Fatalf("submit view: %+v", v)
	}

	done := waitState(t, ts, v.ID, StateDone, 60*time.Second)
	if done.Result == nil {
		t.Fatal("done job carries no result")
	}
	if done.Result.Verdict != "solved" || done.Result.Label != "ok" {
		t.Errorf("jump/reference: verdict %s label %q, want solved/ok",
			done.Result.Verdict, done.Result.Label)
	}
	if done.Result.Input == nil || done.Result.Input.Argv1 == "" {
		t.Error("solved job carries no input")
	}
	if done.Started == "" || done.Finished == "" {
		t.Error("timestamps missing on finished job")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	resp, _ := postJob(t, ts, Request{Bomb: "jumpp", Tool: "reference"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("typo bomb: status %d, want 400", resp.StatusCode)
	}
	// The 400 body should carry the closest-name suggestion.
	body, _ := json.Marshal(Request{Bomb: "jumpp"})
	r2, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	json.NewDecoder(r2.Body).Decode(&e)
	if !strings.Contains(e.Error, `"jump"`) {
		t.Errorf("error %q lacks the suggestion", e.Error)
	}

	resp, _ = postJob(t, ts, Request{Bomb: "jump", Tool: "klee"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown tool: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJob(t, ts, Request{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty request: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJob(t, ts, Request{Bomb: "jump", Strategy: "bfs"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown strategy: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJob(t, ts, Request{Bomb: "jump", Fuzz: true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("fuzz without coverage strategy: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJob(t, ts, Request{Bomb: "jump", CoverGoal: 1.5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range cover_goal: status %d, want 400", resp.StatusCode)
	}
}

// TestCoverageJob runs a job under the coverage strategy with fuzzing
// and checks the wire result carries the coverage counters.
func TestCoverageJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	_, v := postJob(t, ts, Request{Bomb: "jump", Tool: "reference", Strategy: "coverage", Fuzz: true})
	done := waitState(t, ts, v.ID, StateDone, 60*time.Second)
	if done.Result == nil || done.Result.Verdict != "solved" {
		t.Fatalf("coverage job result: %+v", done.Result)
	}
	if done.Result.Stats.CoveredEdges == 0 || done.Result.Stats.CoveredBlocks == 0 {
		t.Errorf("coverage counters missing: %+v", done.Result.Stats)
	}
	if done.Strategy != "coverage" || !done.Fuzz {
		t.Errorf("view does not echo strategy/fuzz: %+v", done)
	}
}

// slowResolver hands out profiles whose budgets keep sha1 busy for
// minutes, so tests can observe running jobs and cancel them.
func slowResolver(name string) (tools.Profile, bool) {
	p, ok := tools.ByName(name)
	if !ok {
		return p, false
	}
	p.Caps.TotalBudget = 10 * time.Minute
	p.Caps.SolverTimeout = 10 * time.Minute
	p.Caps.SolverConflicts = 50_000_000
	p.Caps.MaxRounds = 1000
	return p, true
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, ResolveProfile: slowResolver})

	_, v := postJob(t, ts, Request{Bomb: "sha1", Tool: "reference", Workers: 1})
	waitState(t, ts, v.ID, StateRunning, 10*time.Second)

	start := time.Now()
	resp := cancelJob(t, ts, v.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	got := waitState(t, ts, v.ID, StateCancelled, 30*time.Second)
	elapsed := time.Since(start)
	if got.Result == nil || got.Result.Verdict != "cancelled" {
		t.Fatalf("cancelled job result: %+v", got.Result)
	}
	// The profile budgets are minutes; observing the cancel within
	// seconds means the worker saw ctx.Done() mid-round.
	if elapsed > 25*time.Second {
		t.Errorf("cancellation took %v; want prompt ctx.Done() observation", elapsed)
	}

	// Cancelling a terminal job conflicts.
	if resp := cancelJob(t, ts, v.ID); resp.StatusCode != http.StatusConflict {
		t.Errorf("second cancel: status %d, want 409", resp.StatusCode)
	}
}

func TestCancelQueuedJobAndBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, ResolveProfile: slowResolver})

	// Occupy the single worker.
	_, running := postJob(t, ts, Request{Bomb: "sha1", Tool: "reference", Workers: 1})
	waitState(t, ts, running.ID, StateRunning, 10*time.Second)

	// Fill the queue.
	resp, queued := postJob(t, ts, Request{Bomb: "aes", Tool: "reference", Workers: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: status %d", resp.StatusCode)
	}

	// Queue full: 429 with Retry-After.
	resp3, _ := postJob(t, ts, Request{Bomb: "jump", Tool: "reference"})
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Error("429 lacks Retry-After")
	}

	// Cancel the queued job: immediate, no worker involved.
	if resp := cancelJob(t, ts, queued.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: status %d", resp.StatusCode)
	}
	if v := getJob(t, ts, queued.ID); v.State != StateCancelled {
		t.Errorf("queued job state %s after cancel", v.State)
	}

	// Unblock the worker.
	cancelJob(t, ts, running.ID)
	waitState(t, ts, running.ID, StateCancelled, 30*time.Second)

	// The freed slot accepts again and skips the cancelled queued job.
	resp4, v4 := postJob(t, ts, Request{Bomb: "jump", Tool: "reference"})
	if resp4.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain submit: status %d", resp4.StatusCode)
	}
	if v := waitState(t, ts, v4.ID, StateDone, 60*time.Second); v.Result.Label != "ok" {
		t.Errorf("post-drain job label %q", v.Result.Label)
	}
}

func TestListJobsAndNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	_, a := postJob(t, ts, Request{Bomb: "jump", Tool: "reference"})
	_, b := postJob(t, ts, Request{Bomb: "arglen", Tool: "reference"})

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []View `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID != a.ID || list.Jobs[1].ID != b.ID {
		t.Errorf("list = %+v, want [%s %s] in order", list.Jobs, a.ID, b.ID)
	}

	r2, _ := http.Get(ts.URL + "/v1/jobs/job-999999")
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: status %d, want 404", r2.StatusCode)
	}
	r3, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-999999", nil)
	resp3, _ := http.DefaultClient.Do(r3)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("cancel missing job: status %d, want 404", resp3.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	_, v := postJob(t, ts, Request{Bomb: "jump", Tool: "reference"})
	waitState(t, ts, v.ID, StateDone, 60*time.Second)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"concolicd_jobs_submitted_total 1",
		`concolicd_jobs_finished_total{state="done"} 1`,
		"concolicd_queue_capacity 2",
		"concolicd_workers 1",
		"concolicd_engine_rounds_total",
		"concolicd_solver_cache_hits_total",
		"concolicd_sym_arena_nodes",
		"concolicd_sym_intern_hits_total",
		"concolicd_sym_intern_misses_total",
		"concolicd_sym_intern_hit_ratio",
		"concolicd_job_wall_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output lacks %q", want)
		}
	}

	// Every series /metrics exports, with its type. Dashboards key on
	// these names, so none may be renamed, and one is dropped only
	// together with the behaviour it counts.
	for _, series := range []struct{ name, typ string }{
		{"concolicd_jobs_submitted_total", "counter"},
		{"concolicd_jobs_rejected_total", "counter"},
		{"concolicd_jobs_finished_total", "counter"},
		{"concolicd_jobs_running", "gauge"},
		{"concolicd_queue_depth", "gauge"},
		{"concolicd_queue_capacity", "gauge"},
		{"concolicd_workers", "gauge"},
		{"concolicd_engine_rounds_total", "counter"},
		{"concolicd_solver_queries_total", "counter"},
		{"concolicd_solver_cache_hits_total", "counter"},
		{"concolicd_solver_cache_misses_total", "counter"},
		{"concolicd_solver_cache_hit_ratio", "gauge"},
		{"concolicd_checkpoint_cow_faults_total", "counter"},
		{"concolicd_sharedcache_hits_total", "counter"},
		{"concolicd_sharedcache_misses_total", "counter"},
		{"concolicd_sharedcache_stores_total", "counter"},
		{"concolicd_sharedcache_served_total", "counter"},
		{"concolicd_ratelimited_total", "counter"},
		{"concolicd_steal_leased_total", "counter"},
		{"concolicd_steal_stolen_total", "counter"},
		{"concolicd_steal_lease_expired_total", "counter"},
		{"concolicd_steal_remote_results_total", "counter"},
		{"concolicd_cover_edges_total", "counter"},
		{"concolicd_cover_blocks_total", "counter"},
		{"concolicd_fuzz_execs_total", "counter"},
		{"concolicd_fuzz_seeds_promoted_total", "counter"},
		{"concolicd_cover_global_edges", "gauge"},
		{"concolicd_cover_global_blocks", "gauge"},
		{"concolicd_sym_arena_nodes", "gauge"},
		{"concolicd_sym_intern_hits_total", "counter"},
		{"concolicd_sym_intern_misses_total", "counter"},
		{"concolicd_sym_intern_fallbacks_total", "counter"},
		{"concolicd_sym_intern_hit_ratio", "gauge"},
		{"concolicd_job_wall_seconds", "histogram"},
	} {
		if want := "# TYPE " + series.name + " " + series.typ + "\n"; !strings.Contains(text, want) {
			t.Errorf("metrics output lacks %q", strings.TrimSpace(want))
		}
	}
	for _, want := range []string{
		"concolicd_job_wall_seconds_bucket{le=\"+Inf\"} 1",
		"concolicd_job_wall_seconds_sum ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output lacks %q", want)
		}
	}
}

func TestHealthAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status string `json:"status"`
	}
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "ok" {
		t.Errorf("health = %q, want ok", h.Status)
	}

	_, v := postJob(t, ts, Request{Bomb: "jump", Tool: "reference"})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	s.Drain(ctx)

	// Accepted work ran to completion before the drain returned.
	if got := getJob(t, ts, v.ID); got.State != StateDone {
		t.Errorf("job state after drain = %s, want done", got.State)
	}

	// Draining: submissions 503, health reports it.
	resp2, _ := postJob(t, ts, Request{Bomb: "jump", Tool: "reference"})
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", resp2.StatusCode)
	}
	r3, _ := http.Get(ts.URL + "/healthz")
	json.NewDecoder(r3.Body).Decode(&h)
	r3.Body.Close()
	if h.Status != "draining" {
		t.Errorf("health while draining = %q", h.Status)
	}
}

// TestDrainDeadlineCancelsRunning verifies the hard edge of drain: when
// the drain context expires, still-running jobs are cancelled through
// their contexts rather than held forever.
func TestDrainDeadlineCancelsRunning(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, ResolveProfile: slowResolver})
	_, v := postJob(t, ts, Request{Bomb: "sha1", Tool: "reference", Workers: 1})
	waitState(t, ts, v.ID, StateRunning, 10*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	s.Drain(ctx)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("drain took %v", elapsed)
	}
	if got := getJob(t, ts, v.ID); got.State != StateCancelled {
		t.Errorf("job state after deadline drain = %s, want cancelled", got.State)
	}
}

// TestStoreIDsSequential pins the ID scheme: deterministic, ordered.
func TestStoreIDsSequential(t *testing.T) {
	st := NewStore()
	for i := 1; i <= 3; i++ {
		j := st.Add(Request{Bomb: "jump", Tool: "reference"}, "")
		want := fmt.Sprintf("job-%06d", i)
		if j.ID != want {
			t.Errorf("ID %q, want %q", j.ID, want)
		}
	}
}
