package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// metricValue extracts a sample value from Prometheus exposition text.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
		if err != nil {
			t.Fatalf("metric %s: unparsable sample %q", name, line)
		}
		return v
	}
	t.Fatalf("metric %s missing from /metrics", name)
	return 0
}

// TestSolverValidation pins the 400s for the solver field: an unknown
// mode and the modes older servers accepted get the same suggestion
// error, while "" and "fresh" stay valid.
func TestSolverValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	reject := func(req Request) string {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: status %d, want 400", req, resp.StatusCode)
		}
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return e.Error
	}

	for _, mode := range []string{"z3", "portfolio", "incremental"} {
		want := `unknown solver mode "` + mode + `" (valid: fresh)`
		if msg := reject(Request{Bomb: "jump", Solver: mode}); !strings.Contains(msg, want) {
			t.Errorf("solver %q: error %q, want %q", mode, msg, want)
		}
	}
	for _, mode := range []string{"", "fresh"} {
		req := Request{Bomb: "jump", Solver: mode}
		if err := req.Validate(); err != nil {
			t.Errorf("solver %q: %v", mode, err)
		}
	}
}
