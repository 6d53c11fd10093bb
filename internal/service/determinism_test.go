package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/bombs"
	"repro/internal/cliopts"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/tools"
)

// fastResolve mirrors the eval grid test's budget reduction, but with
// no per-query wall-clock timeout: the conflict budget, the FP iteration
// budget and the round cap bind, and none of them depends on how the
// machine schedules concurrent jobs. The total budget is raised far past
// what the included bombs need and kept only as a safety net.
func fastResolve(name string) (tools.Profile, bool) {
	p, ok := tools.ByName(name)
	if !ok {
		return p, false
	}
	p = tools.FastBudgets(p)
	p.Caps.TotalBudget = 10 * time.Minute
	p.Caps.SolverTimeout = 0
	return p, true
}

// TestServiceDeterminism is the service-level determinism guarantee:
// for every bomb×profile cell, the label a concolicd job reports equals
// the direct eval.Classify result for the same {bomb, tool, workers}
// tuple — even when every cell is submitted concurrently. The two
// crypto bombs are excluded for the same reason as the eval grid test:
// without a wall-clock ceiling their conflict-bounded queries run for
// minutes.
func TestServiceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid service comparison is slow; run without -short")
	}
	const engineWorkers = 2
	toolNames := []string{"bap", "triton", "angr", "angr-nolib"}
	var rows []*bombs.Bomb
	for _, b := range bombs.TableII() {
		if b.Name == "sha1" || b.Name == "aes" {
			continue
		}
		rows = append(rows, b)
	}

	type cell struct{ bomb, tool string }
	var cells []cell
	for _, b := range rows {
		for _, tn := range toolNames {
			cells = append(cells, cell{b.Name, tn})
		}
	}

	s := New(Config{Workers: 4, QueueDepth: len(cells), ResolveProfile: fastResolve})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Submit every cell concurrently; determinism must hold regardless of
	// submission interleaving and queue order.
	ids := make([]string, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c cell) {
			defer wg.Done()
			body, _ := json.Marshal(Request{Bomb: c.bomb, Tool: c.tool, Options: cliopts.Options{Workers: engineWorkers}})
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var v View
			json.NewDecoder(resp.Body).Decode(&v)
			ids[i] = v.ID
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %s/%s: %v", cells[i].tool, cells[i].bomb, err)
		}
	}

	// Direct reference runs with identical caps, bounded concurrency.
	wantVerdict := make([]string, len(cells))
	wantLabel := make([]string, len(cells))
	wantDetail := make([]string, len(cells))
	sem := make(chan struct{}, 4)
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c cell) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			b, _ := bombs.ByName(c.bomb)
			p, _ := fastResolve(c.tool)
			p.Caps.Workers = engineWorkers
			out := core.New(b.Image(), b.BombAddr(), p.Caps).Explore(b.Benign)
			wantVerdict[i] = out.Verdict.String()
			wantLabel[i] = string(eval.Classify(out))
			wantDetail[i] = out.CrashDetail
		}(i, c)
	}
	wg.Wait()

	for i, c := range cells {
		v := waitState(t, ts, ids[i], StateDone, 5*time.Minute)
		if v.Result == nil {
			t.Fatalf("%s/%s: done without result", c.tool, c.bomb)
		}
		if v.Result.Verdict != wantVerdict[i] || v.Result.Label != wantLabel[i] {
			t.Errorf("%s/%s: service %s/%q (%q), direct %s/%q (%q)",
				c.tool, c.bomb, v.Result.Verdict, v.Result.Label, v.Result.Detail,
				wantVerdict[i], wantLabel[i], wantDetail[i])
		}
	}
}
