package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cliopts"
	"repro/internal/jobstore"
)

func openJL(t *testing.T, dir string) *jobstore.Log {
	t.Helper()
	jl, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return jl
}

// TestRecoveryAcrossRestart runs a job to completion on one server
// instance, restarts the service on the same store directory, and
// requires the finished result to be fetchable again.
func TestRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	jl1 := openJL(t, dir)
	s1 := New(Config{Workers: 2, QueueDepth: 8, ResolveProfile: fastResolve, Jobs: jl1})
	ts1 := httptest.NewServer(s1.Handler())
	_, v := postJob(t, ts1, Request{Bomb: "jump", Tool: "reference", Options: cliopts.Options{Workers: 1}})
	done := waitState(t, ts1, v.ID, StateDone, 30*time.Second)
	if done.Result == nil || done.Result.Verdict != "unreachable" {
		t.Fatalf("pre-restart result: %+v", done.Result)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	s1.Drain(ctx)
	cancel()
	ts1.Close()
	if err := jl1.Close(); err != nil {
		t.Fatal(err)
	}

	jl2 := openJL(t, dir)
	defer jl2.Close()
	s2 := New(Config{Workers: 2, QueueDepth: 8, ResolveProfile: fastResolve, Jobs: jl2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	got := getJob(t, ts2, v.ID)
	if got.State != StateDone {
		t.Fatalf("restarted job state: %s", got.State)
	}
	if got.Result == nil || got.Result.Verdict != done.Result.Verdict ||
		got.Result.Label != done.Result.Label || got.Result.Rounds != done.Result.Rounds {
		t.Fatalf("restarted result diverged:\n got %+v\nwant %+v", got.Result, done.Result)
	}
	// ID assignment resumes past recovered jobs instead of reusing IDs.
	_, v2 := postJob(t, ts2, Request{Bomb: "jump", Tool: "reference", Options: cliopts.Options{Workers: 1}})
	if v2.ID != "job-000002" {
		t.Fatalf("post-restart ID: %q", v2.ID)
	}
	waitState(t, ts2, v2.ID, StateDone, 30*time.Second)
}

// TestRecoveryResumesInterruptedJobs simulates a concolicd killed
// mid-flight: the store directory holds a running job (its engine died
// with the process), a queued job, a finished job, and a torn log tail
// from the fatal append. A new server over that directory must rerun
// the interrupted and queued jobs to completion, keep the finished
// result fetchable, and list everything in the original order.
func TestRecoveryResumesInterruptedJobs(t *testing.T) {
	dir := t.TempDir()

	crashed := openJL(t, dir)
	req, _ := json.Marshal(Request{Bomb: "jump", Tool: "reference", Options: cliopts.Options{Workers: 1}})
	res, _ := json.Marshal(Result{Verdict: "solved", Label: "", Rounds: 2})
	crashed.Put(jobstore.Record{ID: "job-000001", Req: req, State: string(StateRunning), Submitted: time.Now()})
	crashed.Put(jobstore.Record{ID: "job-000002", Req: req, State: string(StateQueued), Submitted: time.Now()})
	crashed.Put(jobstore.Record{ID: "job-000003", Req: req, State: string(StateDone), Submitted: time.Now(), Result: res})
	// The process died mid-append: leave an unterminated fragment and
	// no Close/Compact.
	f, err := os.OpenFile(filepath.Join(dir, "log.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(`{"t":"j","j":{"id":"job-000004","sta`)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jl := openJL(t, dir)
	defer jl.Close()
	s := New(Config{Workers: 2, QueueDepth: 8, ResolveProfile: fastResolve, Jobs: jl})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})

	// The interrupted (running) and queued jobs rerun to completion.
	for _, id := range []string{"job-000001", "job-000002"} {
		v := waitState(t, ts, id, StateDone, 30*time.Second)
		if v.Result == nil || v.Result.Verdict != "unreachable" {
			t.Fatalf("recovered job %s result: %+v", id, v.Result)
		}
	}
	// The finished job's result survived without rerunning.
	v := getJob(t, ts, "job-000003")
	if v.State != StateDone || v.Result == nil || v.Result.Rounds != 2 {
		t.Fatalf("finished job after recovery: %+v", v)
	}
	// Stable creation order survives replay.
	views, total := s.store.Page(0, 0)
	if total != 3 {
		t.Fatalf("recovered %d jobs, want 3", total)
	}
	for i, want := range []string{"job-000001", "job-000002", "job-000003"} {
		if views[i].ID != want {
			t.Fatalf("recovered order[%d] = %s, want %s", i, views[i].ID, want)
		}
	}
}

// TestRecoveryRevalidatesQueuedJobs replays a journal holding queued
// requests this replica does not accept — an unknown solver mode, and
// two modes older servers accepted — next to finished jobs of those
// older modes. The queued jobs must fail with the same error a
// submission gets, not run under defaults; the finished jobs keep
// serving their results, including one whose stats carry the counters
// of the removed incremental mode.
func TestRecoveryRevalidatesQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	old := openJL(t, dir)
	res, _ := json.Marshal(Result{Verdict: "solved", Label: "ok", Rounds: 4})
	incRes := json.RawMessage(`{"verdict":"solved","label":"ok","rounds":5,"stats":{"rounds":5,"solver_queries":9,` +
		`"solver_sessions":5,"incremental_checks":9,"learned_retained":31,"guard_literals":9}}`)
	for _, rec := range []jobstore.Record{
		{ID: "job-000001", Req: json.RawMessage(`{"bomb":"array1","tool":"reference","solver":"bogus"}`), State: string(StateQueued)},
		{ID: "job-000002", Req: json.RawMessage(`{"bomb":"array1","tool":"reference","solver":"portfolio","warmstart":true}`), State: string(StateQueued)},
		{ID: "job-000003", Req: json.RawMessage(`{"bomb":"array1","tool":"reference","solver":"portfolio"}`), State: string(StateDone), Result: res},
		{ID: "job-000004", Req: json.RawMessage(`{"bomb":"array1","tool":"reference","solver":"incremental"}`), State: string(StateQueued)},
		{ID: "job-000005", Req: json.RawMessage(`{"bomb":"array1","tool":"reference","solver":"incremental"}`), State: string(StateDone), Result: incRes},
	} {
		rec.Submitted = time.Now()
		old.Put(rec)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	jl := openJL(t, dir)
	defer jl.Close()
	s := New(Config{Workers: 1, QueueDepth: 8, ResolveProfile: fastResolve, Jobs: jl})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})

	for id, mode := range map[string]string{"job-000001": "bogus", "job-000002": "portfolio", "job-000004": "incremental"} {
		v := waitState(t, ts, id, StateFailed, 30*time.Second)
		want := `unknown solver mode "` + mode + `" (valid: fresh)`
		if !strings.Contains(v.Error, want) || v.Result != nil {
			t.Errorf("%s: error %q, result %+v; want the error %q and no result", id, v.Error, v.Result, want)
		}
	}
	if v := getJob(t, ts, "job-000003"); v.State != StateDone || v.Result == nil || v.Result.Rounds != 4 {
		t.Errorf("finished job after recovery: %+v", v)
	}
	if v := getJob(t, ts, "job-000005"); v.State != StateDone || v.Result == nil || v.Result.Rounds != 5 ||
		v.Result.Stats.Rounds != 5 || v.Result.Stats.SolverQueries != 9 {
		t.Errorf("finished incremental job after recovery: %+v", v)
	}
}
