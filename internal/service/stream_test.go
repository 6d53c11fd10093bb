package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cliopts"
	"repro/internal/core"
)

// TestProgressSinceWakesBeforeTerminal pins the streaming primitive's
// liveness: a subscriber blocked on the notify channel wakes for an
// intermediate event while the job is still live, not only at the
// terminal transition.
func TestProgressSinceWakesBeforeTerminal(t *testing.T) {
	st := NewStore()
	j := st.Add(Request{Bomb: "jump", Tool: "reference"}, "")

	evs, state, ch, err := st.ProgressSince(j.ID, 0)
	if err != nil || len(evs) != 0 || state != StateQueued || ch == nil {
		t.Fatalf("initial subscribe: evs=%v state=%s ch=%v err=%v", evs, state, ch, err)
	}

	st.AppendProgress(j, ProgressEvent{Progress: core.Progress{Round: 1, SolverQueries: 3}})
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("append did not wake the subscriber")
	}
	evs, state, ch, err = st.ProgressSince(j.ID, 0)
	if err != nil || len(evs) != 1 || evs[0].Seq != 0 || evs[0].Round != 1 {
		t.Fatalf("after append: evs=%v err=%v", evs, err)
	}
	if state.Terminal() {
		t.Fatal("event delivered only at terminal state")
	}

	// Terminal transition wakes waiters too, and later subscriptions see
	// a nil channel (nothing further to wait for).
	st.Finish(j, StateDone, &Result{Verdict: "solved"}, "")
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("finish did not wake the subscriber")
	}
	evs, state, ch, err = st.ProgressSince(j.ID, 1)
	if err != nil || len(evs) != 0 || state != StateDone || ch != nil {
		t.Fatalf("terminal subscribe: evs=%v state=%s ch=%v err=%v", evs, state, ch, err)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

func readSSE(t *testing.T, r *bufio.Reader, timeout time.Duration) []sseEvent {
	t.Helper()
	var out []sseEvent
	cur := sseEvent{}
	done := time.After(timeout)
	lines := make(chan string)
	errc := make(chan error, 1)
	go func() {
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				errc <- err
				return
			}
			lines <- strings.TrimRight(line, "\n")
		}
	}()
	for {
		select {
		case <-done:
			t.Fatalf("SSE stream did not finish in %v (events so far: %+v)", timeout, out)
		case err := <-errc:
			t.Fatalf("SSE stream error before done event: %v (events so far: %+v)", err, out)
		case line := <-lines:
			switch {
			case strings.HasPrefix(line, "event: "):
				cur.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = strings.TrimPrefix(line, "data: ")
			case line == "":
				if cur.name != "" {
					out = append(out, cur)
					if cur.name == "done" {
						return out
					}
					cur = sseEvent{}
				}
			}
		}
	}
}

// TestSSEStreamsProgressBeforeCompletion subscribes to a job's event
// stream while the job is still queued behind a long-running blocker:
// every progress event the stream then delivers is necessarily live —
// emitted after the subscription, before the job completed. The test
// requires at least one such intermediate event ahead of the final
// done event.
func TestSSEStreamsProgressBeforeCompletion(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, ResolveProfile: slowResolver})

	// Occupy the single worker so the observed job stays queued.
	_, blocker := postJob(t, ts, Request{Bomb: "sha1", Tool: "reference", Options: cliopts.Options{Workers: 1}})
	waitState(t, ts, blocker.ID, StateRunning, 10*time.Second)

	_, v := postJob(t, ts, Request{Bomb: "jump", Tool: "reference", Options: cliopts.Options{Workers: 1}})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// Release the worker; the observed job now runs while we stream.
	if r := cancelJob(t, ts, blocker.ID); r.StatusCode != http.StatusOK {
		t.Fatalf("cancel blocker: %d", r.StatusCode)
	}

	events := readSSE(t, bufio.NewReader(resp.Body), 60*time.Second)
	if len(events) < 2 {
		t.Fatalf("want >=1 progress event plus done, got %+v", events)
	}
	var rounds []int
	for _, ev := range events[:len(events)-1] {
		if ev.name != "progress" {
			t.Fatalf("unexpected event %q before done", ev.name)
		}
		var pe ProgressEvent
		if err := json.Unmarshal([]byte(ev.data), &pe); err != nil {
			t.Fatalf("progress payload %q: %v", ev.data, err)
		}
		rounds = append(rounds, pe.Round)
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i] < rounds[i-1] {
			t.Fatalf("rounds regressed: %v", rounds)
		}
	}
	last := events[len(events)-1]
	var final View
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatalf("done payload %q: %v", last.data, err)
	}
	if final.State != StateDone || final.Result == nil || final.Result.Verdict != "solved" {
		t.Fatalf("final event: %+v", final)
	}
	if final.Progress != len(events)-1 {
		t.Errorf("view counts %d progress events, stream carried %d", final.Progress, len(events)-1)
	}
}

// TestProgressPollEndpoint exercises the JSON twin: cursor paging over
// the recorded events after completion.
func TestProgressPollEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, ResolveProfile: fastResolve})
	_, v := postJob(t, ts, Request{Bomb: "jump", Tool: "reference", Options: cliopts.Options{Workers: 1}})
	waitState(t, ts, v.ID, StateDone, 30*time.Second)

	var page struct {
		State  State           `json:"state"`
		Events []ProgressEvent `json:"events"`
		Next   int             `json:"next"`
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&page)
	resp.Body.Close()
	if page.State != StateDone || len(page.Events) < 1 {
		t.Fatalf("poll: %+v", page)
	}
	total := len(page.Events)

	// Resume from the cursor: nothing new.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + v.ID + "/progress?from=" + strconv.Itoa(page.Next))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&page)
	resp.Body.Close()
	if len(page.Events) != 0 || page.Next != total {
		t.Fatalf("resumed poll: %+v", page)
	}

	// Unknown jobs 404.
	resp, _ = http.Get(ts.URL + "/v1/jobs/job-999999/progress")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job poll: %d", resp.StatusCode)
	}
}
