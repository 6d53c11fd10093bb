package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobstore"
	"repro/internal/service"
	"repro/internal/sharedcache"
	"repro/internal/solver"
	"repro/internal/target"
)

// fleetClients is the closed loop's client count: each client submits its
// next job only after the previous one's final event arrived.
const fleetClients = 2

// fleet is one in-process concolicd with two job workers, a job journal
// and a shared query tier in a temporary directory, served over loopback
// HTTP.
type fleet struct {
	dir     string
	journal *jobstore.Log
	tier    *sharedcache.Tier
	srv     *service.Server
	ts      *httptest.Server
}

func startFleet() (*fleet, error) {
	dir, err := os.MkdirTemp("", "bench-fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	if f.journal, err = jobstore.Open(filepath.Join(dir, "jobs")); err != nil {
		f.close()
		return nil, err
	}
	if f.tier, err = sharedcache.Open(filepath.Join(dir, "tier")); err != nil {
		f.close()
		return nil, err
	}
	f.srv = service.New(service.Config{Workers: 2, Jobs: f.journal, SharedCache: solver.SharedTier(f.tier)})
	f.ts = httptest.NewServer(f.srv.Handler())
	return f, nil
}

// close drains the service, stops the server and removes the directory.
func (f *fleet) close() {
	if f.srv != nil {
		f.srv.Drain(context.Background())
		f.ts.Close()
	}
	if f.tier != nil {
		f.tier.Close()
	}
	if f.journal != nil {
		f.journal.Close()
	}
	os.RemoveAll(f.dir)
}

// runFleet submits the ops as jobs from the closed loop's clients. Each
// client samples the host's speed before each of its jobs, while its job
// worker is idle; the pass's time leaves out one client's share of the
// samples.
func runFleet(f *fleet, w *workload, ops []op, g goldens, tr *tracer, sp *speedProbe, res *passResult) []probeTarget {
	res.Ops = make([]opResult, len(ops))
	solved := make([]*target.Input, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(ops); i = int(next.Add(1)) - 1 {
				sp.sample()
				res.Ops[i], solved[i] = runJob(f.ts.URL, w, ops[i], i, g, tr)
			}
		}()
	}
	wg.Wait()
	res.WallS = (time.Since(start) - sp.time()/fleetClients).Seconds()
	if fi, err := os.Stat(filepath.Join(f.dir, "jobs", "log.jsonl")); err == nil {
		res.JournalBytes = fi.Size()
	}

	// The probe takes each cell's first job; the service does not report
	// fault inputs, so only the seed and the solving input are probed.
	var probes []probeTarget
	seen := map[string]bool{}
	for i, o := range ops {
		if tr != nil && !seen[o.cell] {
			seen[o.cell] = true
			probes = append(probes, probeTarget{op: o, opIdx: i, firstQueries: res.Ops[i].FirstQueries, solved: solved[i]})
		}
	}
	return probes
}

// runJob submits one op as a job and follows its event stream to the
// final event. Latency runs from the POST to that event.
func runJob(base string, w *workload, o op, idx int, g goldens, tr *tracer) (opResult, *target.Input) {
	r := opResult{Cell: o.cell, FirstQueries: -1}
	opID := tr.id()
	start := time.Now()
	last := start
	final, err := followJob(base, o, func(ev service.ProgressEvent) {
		if r.FirstQueries < 0 {
			r.FirstQueries = ev.SolverQueries
		}
		if tr != nil {
			now := time.Now()
			tr.add(tr.id(), opID, idx, "round", "", last, now, map[string]int64{
				"round":    int64(ev.Round),
				"queries":  int64(ev.SolverQueries),
				"frontier": int64(ev.Frontier),
			})
			last = now
		}
	})
	end := time.Now()
	r.MS = float64(end.Sub(start).Nanoseconds()) / 1e6
	tr.add(opID, 0, idx, "op", o.cell, start, end, nil)
	if err != nil {
		r.Fail = err.Error()
		return r, nil
	}
	if final.State != service.StateDone || final.Result == nil {
		r.Fail = fmt.Sprintf("job ended %s: %s", final.State, final.Error)
		return r, nil
	}
	jr := final.Result
	r.Label = jr.Label
	if r.Label == "" {
		r.Label = "-"
	}
	r.Rounds, r.Queries = jr.Rounds, jr.Stats.SolverQueries
	r.CacheHits, r.CacheMisses = jr.Stats.CacheHits, jr.Stats.CacheMisses
	r.SharedHits, r.SharedMisses = jr.Stats.SharedCacheHits, jr.Stats.SharedCacheMisses
	r.Edges, r.FuzzExecs, r.FuzzPromoted = jr.Stats.CoveredEdges, jr.Stats.FuzzExecs, jr.Stats.FuzzSeedsPromoted
	r.QueueMS = msBetween(final.Submitted, final.Started)
	r.RunMS = msBetween(final.Started, final.Finished)
	if tr != nil && r.Rounds > 0 {
		// The event stream delivers rounds in bursts, so arrival gaps do
		// not time them; every round is charged the job's mean round time.
		r.RoundUS = make([]float64, r.Rounds)
		for k := range r.RoundUS {
			r.RoundUS[k] = 1e3 * r.RunMS / float64(r.Rounds)
		}
	}
	var solved *target.Input
	if in := jr.Input; in != nil {
		solved = &target.Input{Argv1: in.Argv1, TimeNow: in.TimeNow, Pid: in.Pid, Web: in.Web, Files: in.Files, Env: in.Env}
	}
	r.Fail = g.check(w, o, r.Label, solved, r.Edges)
	return r, solved
}

// followJob posts the job and reads its server-sent events, passing each
// progress event to onProgress, until the final view arrives.
func followJob(base string, o op, onProgress func(service.ProgressEvent)) (*service.View, error) {
	body := fmt.Sprintf(`{"bomb":%q,"tool":%q,"workers":1}`, o.bomb.Name, o.toolName())
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	var v service.View
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("job rejected: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return nil, fmt.Errorf("decode submit response: %w", err)
	}

	resp, err = http.Get(base + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("event stream: HTTP %d", resp.StatusCode)
	}
	event := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "progress":
			var ev service.ProgressEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return nil, fmt.Errorf("decode progress event: %w", err)
			}
			onProgress(ev)
		case strings.HasPrefix(line, "data: ") && event == "done":
			var final service.View
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &final); err != nil {
				return nil, fmt.Errorf("decode final event: %w", err)
			}
			return &final, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF
}

// msBetween is the time between two RFC 3339 timestamps of a job view.
func msBetween(from, to string) float64 {
	a, err1 := time.Parse(time.RFC3339Nano, from)
	b, err2 := time.Parse(time.RFC3339Nano, to)
	if err1 != nil || err2 != nil {
		return 0
	}
	return float64(b.Sub(a).Nanoseconds()) / 1e6
}
