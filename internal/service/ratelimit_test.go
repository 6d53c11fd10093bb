package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cliopts"
)

func postJobAs(t *testing.T, ts *httptest.Server, req Request, apiKey string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	hr.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		hr.Header.Set("X-API-Key", apiKey)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestLimiterBucket pins the token-bucket math with a controlled clock.
func TestLimiterBucket(t *testing.T) {
	l := newLimiter(2, 2) // 2/s, burst 2
	now := time.Unix(1000, 0)

	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("a", now); !ok {
			t.Fatalf("burst token %d refused", i)
		}
	}
	ok, wait := l.allow("a", now)
	if ok {
		t.Fatal("third immediate token allowed past burst")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("retry hint %v, want (0, 1s] at 2 tokens/s", wait)
	}
	// Tenants are independent buckets.
	if ok, _ := l.allow("b", now); !ok {
		t.Fatal("fresh tenant refused")
	}
	// Half a second refills one token at 2/s.
	if ok, _ := l.allow("a", now.Add(500*time.Millisecond)); !ok {
		t.Fatal("refilled token refused")
	}
	// Refill caps at burst.
	later := now.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("a", later); !ok {
			t.Fatalf("post-idle token %d refused", i)
		}
	}
	if ok, _ := l.allow("a", later); ok {
		t.Fatal("idle refill exceeded burst")
	}
	// nil limiter never refuses.
	var nl *limiter
	if ok, _ := nl.allow("anyone", now); !ok {
		t.Fatal("nil limiter refused")
	}
}

// TestTenantRateLimitHTTP drives the 429 path: a tenant over its bucket
// is refused with Retry-After while other tenants still submit, and the
// refusals surface in /metrics.
func TestTenantRateLimitHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 8, ResolveProfile: fastResolve,
		RatePerSec: 0.001, RateBurst: 2, // effectively no refill mid-test
	})

	req := Request{Bomb: "jump", Tool: "reference", Options: cliopts.Options{Workers: 1}}
	for i := 0; i < 2; i++ {
		if resp := postJobAs(t, ts, req, "alice"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("alice submit %d: status %d", i, resp.StatusCode)
		}
	}
	resp := postJobAs(t, ts, req, "alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over budget: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 lacks Retry-After")
	} else if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Errorf("Retry-After %q, want integer >= 1", ra)
	}
	if resp := postJobAs(t, ts, req, "bob"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob blocked by alice's budget: status %d", resp.StatusCode)
	}

	metrics := s.metrics.Render(0, 8, 1)
	if !strings.Contains(metrics, "concolicd_ratelimited_total 1") {
		t.Errorf("metrics missing rate-limit counter:\n%s", metrics)
	}
}

// TestTenantMaxActive caps one tenant's live jobs while leaving others
// unaffected, and releases as jobs finish.
func TestTenantMaxActive(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 8, ResolveProfile: slowResolver,
		TenantMaxActive: 1,
	})

	resp := postJobAs(t, ts, Request{Bomb: "sha1", Tool: "reference", Options: cliopts.Options{Workers: 1}}, "alice")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first alice job: status %d", resp.StatusCode)
	}
	resp = postJobAs(t, ts, Request{Bomb: "jump", Tool: "reference", Options: cliopts.Options{Workers: 1}}, "alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second alice job: status %d, want 429", resp.StatusCode)
	}
	if resp := postJobAs(t, ts, Request{Bomb: "jump", Tool: "reference", Options: cliopts.Options{Workers: 1}}, "bob"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob alongside alice: status %d", resp.StatusCode)
	}
}

// TestListPagination pins stable submission order and the
// offset/limit window on the list endpoint.
func TestListPagination(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, ResolveProfile: fastResolve})

	var ids []string
	for i := 0; i < 3; i++ {
		_, v := postJob(t, ts, Request{Bomb: "jump", Tool: "reference", Options: cliopts.Options{Workers: 1}})
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		waitState(t, ts, id, StateDone, 30*time.Second)
	}

	page := func(query string) (got []string, total, count int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list %q: status %d", query, resp.StatusCode)
		}
		var body struct {
			Jobs  []View `json:"jobs"`
			Total int    `json:"total"`
			Count int    `json:"count"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		for _, v := range body.Jobs {
			got = append(got, v.ID)
		}
		return got, body.Total, body.Count
	}

	all, total, count := page("")
	if total != 3 || count != 3 {
		t.Fatalf("full list: total=%d count=%d", total, count)
	}
	for i, id := range ids {
		if all[i] != id {
			t.Fatalf("list order[%d] = %s, want %s", i, all[i], id)
		}
	}
	win, total, count := page("?offset=1&limit=1")
	if total != 3 || count != 1 || len(win) != 1 || win[0] != ids[1] {
		t.Fatalf("window: ids=%v total=%d count=%d", win, total, count)
	}
	tail, _, _ := page("?offset=2&limit=5")
	if len(tail) != 1 || tail[0] != ids[2] {
		t.Fatalf("over-long window: %v", tail)
	}
	empty, total, _ := page("?offset=10")
	if len(empty) != 0 || total != 3 {
		t.Fatalf("past-the-end window: ids=%v total=%d", empty, total)
	}
	resp, _ := http.Get(ts.URL + "/v1/jobs?offset=-1")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative offset: status %d, want 400", resp.StatusCode)
	}
}
