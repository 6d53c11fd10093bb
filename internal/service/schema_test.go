package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/target"
)

// postRaw submits a raw JSON body, the way a client of any schema
// vintage would, and decodes the error body on non-2xx.
func postRaw(t *testing.T, url, body string) (int, string, View) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error, View{}
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, "", v
}

// TestTargetSchemaVersions drives the versioned job schema over HTTP:
// a legacy bomb-field client and a new target-object client must be
// served identically, and the reserved/unknown kinds must come back as
// self-explaining 400s rather than misrouted jobs.
func TestTargetSchemaVersions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	// Old client: bare bomb field, no target object.
	st, _, legacy := postRaw(t, ts.URL, `{"bomb":"jump","tool":"reference","workers":1}`)
	if st != http.StatusAccepted {
		t.Fatalf("legacy submit: status %d", st)
	}
	// New client: versioned target object, no bomb field.
	st, _, versioned := postRaw(t, ts.URL,
		`{"target":{"kind":"bomb","name":"jump"},"tool":"reference","workers":1}`)
	if st != http.StatusAccepted {
		t.Fatalf("versioned submit: status %d", st)
	}
	if versioned.Bomb != legacy.Bomb || versioned.Tool != legacy.Tool {
		t.Errorf("views disagree: legacy %+v vs versioned %+v", legacy, versioned)
	}
	for _, id := range []string{legacy.ID, versioned.ID} {
		v := waitState(t, ts, id, StateDone, 30*time.Second)
		if v.Result == nil || v.Result.Verdict != "solved" {
			t.Errorf("job %s: result %+v, want solved", id, v.Result)
		}
	}

	cases := []struct {
		name, body, want string
	}{
		{"reserved gofunc", `{"target":{"kind":"gofunc","pkg":"./examples/demo","func":"Unlock"}}`,
			"reserved"},
		{"unknown kind", `{"target":{"kind":"bombb","name":"jump"}}`,
			`unknown target kind "bombb" (valid: bomb, gofunc) — did you mean "bomb"?`},
		{"missing kind", `{"target":{"name":"jump"}}`, "target.kind is required"},
		{"missing name", `{"target":{"kind":"bomb"}}`, "target.name is required"},
		{"disagreeing fields", `{"bomb":"sha1","target":{"kind":"bomb","name":"jump"}}`,
			"disagree"},
		{"neither field", `{"tool":"reference"}`, "missing required field: bomb"},
	}
	for _, c := range cases {
		st, msg, _ := postRaw(t, ts.URL, c.body)
		if st != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, st)
			continue
		}
		if !strings.Contains(msg, c.want) {
			t.Errorf("%s: error %q, want substring %q", c.name, msg, c.want)
		}
	}

	// Agreeing redundant fields are fine (a client upgrading defensively).
	st, _, both := postRaw(t, ts.URL, `{"bomb":"jump","target":{"kind":"bomb","name":"jump"},"workers":1}`)
	if st != http.StatusAccepted || both.Bomb != "jump" {
		t.Errorf("redundant-but-agreeing submit: status %d view %+v", st, both)
	}
}

// TestResultDecodesParentWireShape pins journal replay across the stats
// schema: a Result written by an older server — per-job stats with only
// the keys it knew, zero-valued optional keys absent, keys of counters
// since removed, wall time in milliseconds — decodes to the same values
// for every counter that remains, and re-encodes losslessly.
func TestResultDecodesParentWireShape(t *testing.T) {
	// oldInput sets every input facet, exactly as an older server wrote it.
	const oldInput = `{"argv1":"7","time":1234567890,"pid":77,"web":{"http://x/":"ok"},` +
		`"files":{"/tmp/k":"AAEC/w=="},"env":{"KEY":"v"}}`
	const old = `{"verdict":"solved","label":"","rounds":3,"input":` + oldInput + `,` +
		`"stats":{"workers":2,"solver_queries":9,"cache_hits":4,"cache_misses":5,` +
		`"peak_frontier":6,"wall_ms":1234,"portfolio_races":7,"portfolio_clauses_shared":8,` +
		`"warmstart_query_hits":1,"warmstart_clauses_seeded":10,"covered_edges":40,` +
		`"covered_blocks":20,"fuzz_execs":48,"fuzz_seeds_promoted":3,"sharedcache_hits":11,` +
		`"sharedcache_misses":12,"sharedcache_stores":13,"sharedcache_served":14,` +
		`"checkpoints_taken":15,"checkpoint_resumes":2,"instructions_skipped":16,` +
		`"pages_cow_faulted":17,"prefix_constraints_reused":18}}`
	want := Result{Verdict: "solved", Rounds: 3, Input: &target.Input{Argv1: "7", TimeNow: 1234567890,
		Pid: 77, Web: map[string]string{"http://x/": "ok"}, Files: map[string][]byte{"/tmp/k": {0, 1, 2, 0xff}},
		Env: map[string]string{"KEY": "v"}}}
	want.Stats = core.Stats{Workers: 2, SolverQueries: 9, CacheHits: 4, CacheMisses: 5,
		PeakFrontier: 6, WallTime: 1234 * time.Millisecond,
		CoveredEdges: 40, CoveredBlocks: 20, FuzzExecs: 48, FuzzSeedsPromoted: 3,
		SharedCacheHits: 11, SharedCacheMisses: 12, SharedCacheStores: 13, SharedCacheServed: 14,
		CheckpointResumes: 2, PagesCOWFaulted: 17}
	for _, doc := range []string{old, `{"verdict":"unreachable","label":"","rounds":0,"stats":{"workers":1,"solver_queries":0,"cache_hits":0,"cache_misses":0,"peak_frontier":1,"wall_ms":0}}`} {
		var got Result
		if err := json.Unmarshal([]byte(doc), &got); err != nil {
			t.Fatalf("decode %s: %v", doc, err)
		}
		if doc == old {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("decoded\n %+v\nwant\n %+v", got, want)
			}
			if raw, _ := json.Marshal(got.Input); string(raw) != oldInput {
				t.Errorf("input re-encodes as %s, want the older server's %s", raw, oldInput)
			}
		}
		raw, _ := json.Marshal(got)
		var back Result
		if err := json.Unmarshal(raw, &back); err != nil || !reflect.DeepEqual(back, got) {
			t.Errorf("re-encode of %s lost values: %s (%v)", doc, raw, err)
		}
	}
}
