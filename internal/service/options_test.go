package service

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cliopts"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/jobstore"
	"repro/internal/tools"
)

// fleetBodies runs the Table II-extended fleet client against a stub
// replica that accepts every job and fails the first poll, and returns
// the first request body submitted for each wire tool name.
func fleetBodies(t *testing.T, opts cliopts.Options) map[string][]byte {
	t.Helper()
	var mu sync.Mutex
	bodies := make(map[string][]byte)
	n := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			io.WriteString(w, `{"state":"failed","error":"stub replica"}`)
			return
		}
		body, _ := io.ReadAll(r.Body)
		var req Request
		json.Unmarshal(body, &req)
		mu.Lock()
		if bodies[req.Tool] == nil {
			bodies[req.Tool] = body
		}
		n++
		id := fmt.Sprintf("job-%06d", n)
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q,"state":"queued"}`, id)
	}))
	defer srv.Close()
	if _, err := eval.RunTableIIExtendedFleet(opts, []string{srv.URL}); err == nil {
		t.Fatal("stub replica finished a grid")
	}
	return bodies
}

// prepared decodes a job request body and builds its engine run the way
// a replica does, returning the capabilities without the per-replica
// shared tier.
func prepared(t *testing.T, body []byte) core.Capabilities {
	t.Helper()
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	_, prof, err := (&pool{resolve: tools.ByName}).prepare(req)
	if err != nil {
		t.Fatalf("prepare %s: %v", body, err)
	}
	return prof.Caps
}

// TestEngineOptionsOneOverlay checks that an option tuple gives every
// Table II-extended profile the same capabilities whichever way it
// reaches the engine: CLI flags parsed by cliopts.Register, an in-process
// grid's eval.Options.Engine, a fleet grid's job request, and a
// concolicd job request decoded through Validate and prepare.
func TestEngineOptionsOneOverlay(t *testing.T) {
	tuples := [][]string{
		nil,
		{"-workers", "2"},
		{"-strategy", "dfs"},
		{"-strategy", "coverage", "-fuzz", "-cover-goal", "0.5"},
	}
	for _, argv := range tuples {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		opts := cliopts.Register(fs)
		if err := fs.Parse(argv); err != nil {
			t.Fatalf("%v: %v", argv, err)
		}
		if err := opts.Check(cliopts.FlagDialect); err != nil {
			t.Fatalf("%v: %v", argv, err)
		}
		gridProfiles := tools.TableIIExtended()
		eval.ApplyOptions(gridProfiles, eval.Options{Engine: *opts})
		fleet := fleetBodies(t, *opts)

		for i, p := range tools.TableIIExtended() {
			name := tools.Names()[i]
			flagCaps := p.Caps
			opts.Apply(&flagCaps)
			want := p.Caps
			if opts.Workers > 0 {
				want.Workers = opts.Workers
			}
			if opts.Strategy != "" {
				want.Search, _ = core.ParseSearchStrategy(opts.Strategy)
			}
			want.Fuzz = opts.Fuzz
			if opts.CoverGoal > 0 {
				want.CoverGoal = opts.CoverGoal
			}
			jobBody, err := json.Marshal(Request{Bomb: "jump", Tool: name, Options: *opts})
			if err != nil {
				t.Fatal(err)
			}
			if fleet[name] == nil {
				t.Fatalf("%v: fleet submitted no %s job", argv, name)
			}
			for way, caps := range map[string]core.Capabilities{
				"flags":        flagCaps,
				"eval.Options": gridProfiles[i].Caps,
				"fleet job":    prepared(t, fleet[name]),
				"service job":  prepared(t, jobBody),
			} {
				caps.Progress, caps.SharedCache = nil, nil
				if !reflect.DeepEqual(caps, want) {
					t.Errorf("%v %s via %s:\n got %+v\nwant %+v", argv, name, way, caps, want)
				}
			}
		}
	}
}

// jsonKeys returns the sorted top-level keys of a JSON object.
func jsonKeys(t *testing.T, doc []byte) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatalf("decode %s: %v", doc, err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestRequestJournalWireShape replays a journaled request that sets
// every key, written in the field order the job API used before the
// engine options were one embedded struct: it must decode to the same
// values and re-encode with the same keys, in the journal and in the job
// view. Zero options stay off the wire in both.
func TestRequestJournalWireShape(t *testing.T) {
	const doc = `{"bomb":"jump","target":{"kind":"bomb","name":"jump"},"tool":"reference",` +
		`"workers":2,"solver":"fresh","budget_ms":400,"strategy":"coverage","fuzz":true,"cover_goal":0.5}`
	dir := t.TempDir()
	jl := openJL(t, dir)
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	jl.Put(jobstore.Record{ID: "job-000007", Req: json.RawMessage(doc), State: string(StateDone),
		Submitted: at, Started: at, Finished: at})
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	jl = openJL(t, dir)
	defer jl.Close()
	st := NewStore()
	st.Recover(jl)
	v, ok := st.View("job-000007")
	if !ok {
		t.Fatal("journaled job not recovered")
	}
	st.mu.Lock()
	req := st.jobs["job-000007"].Req
	st.mu.Unlock()

	want := Request{
		Bomb: "jump", Target: &TargetSpec{Kind: "bomb", Name: "jump"}, Tool: "reference",
		Options: cliopts.Options{Workers: 2, Strategy: "coverage", Fuzz: true, CoverGoal: 0.5},
		Solver:  "fresh", BudgetMS: 400,
	}
	if !reflect.DeepEqual(req, want) {
		t.Errorf("replayed request %+v, want %+v", req, want)
	}
	if v.Options != want.Options || v.Solver != "fresh" || v.BudgetMS != 400 {
		t.Errorf("replayed view %+v", v)
	}
	again, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := jsonKeys(t, again), jsonKeys(t, []byte(doc)); !reflect.DeepEqual(got, want) {
		t.Errorf("re-encoded request keys %v, want %v", got, want)
	}
	viewDoc, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	wantView := []string{"budget_ms", "bomb", "cover_goal", "finished_at", "fuzz", "id", "solver",
		"started_at", "state", "strategy", "submitted_at", "tool", "workers"}
	sort.Strings(wantView)
	if got := jsonKeys(t, viewDoc); !reflect.DeepEqual(got, wantView) {
		t.Errorf("view keys %v, want %v", got, wantView)
	}

	if got, err := json.Marshal(Request{}); err != nil || string(got) != `{"tool":""}` {
		t.Errorf("zero request encodes as %s, %v", got, err)
	}
	zeroView, _ := json.Marshal(View{})
	if got := jsonKeys(t, zeroView); !reflect.DeepEqual(got, []string{"bomb", "id", "state", "submitted_at", "tool"}) {
		t.Errorf("zero view keys %v", got)
	}
}
