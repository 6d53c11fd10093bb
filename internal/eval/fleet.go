package eval

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/bombs"
	"repro/internal/cliopts"
	"repro/internal/core"
	"repro/internal/target"
	"repro/internal/tools"
)

// Fleet client: RunTableIIFleet replays the Table II grid against one
// or more concolicd replicas instead of in-process engines. Each
// profile x bomb cell becomes a job submitted round-robin over the
// endpoints; replicas sharing a -sharedcache directory then solve each
// negation query once fleet-wide. Because the service runs the same
// engine on the same deterministic scheduler, and the shared tier
// stores only seed-independent budget-deterministic results, the
// resulting verdict labels are byte-identical to RunTableII — the
// fleet differential test in the service package asserts exactly that.
//
// The service speaks plain JSON, so the client here re-declares the
// wire shapes instead of importing internal/service (which imports
// this package for Classify). The engine options are not re-declared:
// the request embeds cliopts.Options, as service.Request does.

// fleetRequest mirrors service.Request.
type fleetRequest struct {
	Bomb string `json:"bomb"`
	Tool string `json:"tool"`
	cliopts.Options
}

// fleetView mirrors the service job view fields the client consumes.
type fleetView struct {
	ID     string       `json:"id"`
	State  string       `json:"state"`
	Error  string       `json:"error"`
	Result *fleetResult `json:"result"`
}

type fleetResult struct {
	Verdict string        `json:"verdict"`
	Label   string        `json:"label"`
	Detail  string        `json:"detail"`
	Rounds  int           `json:"rounds"`
	Input   *target.Input `json:"input"`
	Stats   core.Stats    `json:"stats"`
}

var fleetHTTP = &http.Client{Timeout: 10 * time.Second}

// Fleet grid pacing: how often a job's completion is polled, and the
// bound on the whole grid run.
const (
	fleetPoll    = 50 * time.Millisecond
	fleetTimeout = 10 * time.Minute
)

// RunTableIIFleet evaluates the four Table II profiles over the 22
// bombs on a concolicd fleet, submitting cells round-robin across the
// endpoints and assembling the same Grid RunTableII returns. The engine
// options ride on every submitted job; the replica checks and applies
// them with the same cliopts.Options methods RunTableII uses.
func RunTableIIFleet(opts cliopts.Options, endpoints []string) (*Grid, error) {
	// tools.Names() lists the wire/CLI ids in Table II order (plus the
	// reference engine); the grid itself is keyed by display name.
	return runFleetGrid(tools.TableII(), tools.Names()[:4], bombs.TableII(),
		true, "TABLE II", opts, endpoints)
}

// RunTableIIExtendedFleet is RunTableIIFleet for the Table II-extended
// corpus: the five extended columns (paper profiles plus the reference
// engine) over the TIFS-2018 taxonomy bombs, assembling the same Grid
// RunTableIIExtended returns.
func RunTableIIExtendedFleet(opts cliopts.Options, endpoints []string) (*Grid, error) {
	return runFleetGrid(tools.TableIIExtended(), tools.Names(), bombs.TableIIExtended(),
		false, "TABLE II-EXTENDED", opts, endpoints)
}

// runFleetGrid submits every profile x bomb cell round-robin over the
// endpoints and assembles the grid from the finished jobs. wireNames
// must parallel profiles with the service/CLI tool ids.
func runFleetGrid(profiles []tools.Profile, wireNames []string, rows []*bombs.Bomb,
	withPaper bool, title string, opts cliopts.Options, endpoints []string) (*Grid, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("fleet: no endpoints")
	}

	g := &Grid{Title: title, HasPaper: withPaper, Cells: make(map[string]map[string]*Cell)}
	for _, p := range profiles {
		g.Tools = append(g.Tools, p.Name())
	}
	g.Rows = rows

	type pending struct {
		endpoint string
		jobID    string
		bomb     *bombs.Bomb
		profile  tools.Profile
		paperIdx int
	}
	var jobs []pending
	next := 0
	for _, b := range rows {
		g.Cells[b.Name] = make(map[string]*Cell)
		for i, p := range profiles {
			req := fleetRequest{Bomb: b.Name, Tool: wireNames[i], Options: opts}
			endpoint := endpoints[next%len(endpoints)]
			next++
			id, err := fleetSubmit(endpoint, req)
			if err != nil {
				return nil, fmt.Errorf("fleet: submit %s/%s to %s: %w", b.Name, p.Name(), endpoint, err)
			}
			paperIdx := i
			if !withPaper {
				paperIdx = -1
			}
			jobs = append(jobs, pending{endpoint: endpoint, jobID: id, bomb: b, profile: p, paperIdx: paperIdx})
		}
	}

	deadline := time.Now().Add(fleetTimeout)
	for _, pj := range jobs {
		v, err := fleetWait(pj.endpoint, pj.jobID, deadline)
		if err != nil {
			return nil, fmt.Errorf("fleet: job %s (%s/%s): %w", pj.jobID, pj.bomb.Name, pj.profile.Name(), err)
		}
		cell, err := cellFromView(pj.bomb, pj.profile, pj.paperIdx, v)
		if err != nil {
			return nil, fmt.Errorf("fleet: job %s (%s/%s): %w", pj.jobID, pj.bomb.Name, pj.profile.Name(), err)
		}
		g.Cells[pj.bomb.Name][pj.profile.Name()] = cell
	}
	return g, nil
}

// fleetSubmit posts one job, retrying on 429 backpressure until the
// deadline — a fleet grid intentionally oversubscribes small queues.
func fleetSubmit(endpoint string, req fleetRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	deadline := time.Now().Add(fleetTimeout)
	for {
		resp, err := fleetHTTP.Post(endpoint+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		var v fleetView
		var apiErr struct {
			Error string `json:"error"`
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil {
				return "", err
			}
			return v.ID, nil
		case http.StatusTooManyRequests:
			resp.Body.Close()
			if time.Now().After(deadline) {
				return "", fmt.Errorf("queue full past deadline")
			}
			time.Sleep(100 * time.Millisecond)
		default:
			json.NewDecoder(resp.Body).Decode(&apiErr)
			resp.Body.Close()
			return "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, apiErr.Error)
		}
	}
}

// fleetWait polls one job to a terminal state.
func fleetWait(endpoint, id string, deadline time.Time) (*fleetView, error) {
	for {
		resp, err := fleetHTTP.Get(endpoint + "/v1/jobs/" + id)
		if err != nil {
			return nil, err
		}
		var v fleetView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch v.State {
		case "done":
			return &v, nil
		case "failed", "cancelled":
			return nil, fmt.Errorf("terminal state %s: %s", v.State, v.Error)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("still %s past deadline", v.State)
		}
		time.Sleep(fleetPoll)
	}
}

// cellFromView rebuilds a grid cell from a finished job. The service
// computes Label with the same Classify the in-process path uses;
// overrides and the paper comparison are profile knowledge, applied
// here exactly as RunCell applies them. The synthesized Outcome carries
// the verdict and the wire work profile — enough for rendering and the
// JSON export (every Stats counter rides on the wire), not a full
// engine transcript.
func cellFromView(b *bombs.Bomb, p tools.Profile, paperIdx int, v *fleetView) (*Cell, error) {
	if v.Result == nil {
		return nil, fmt.Errorf("done without result")
	}
	verdict, err := core.ParseVerdict(v.Result.Verdict)
	if err != nil {
		return nil, err
	}
	out := &core.Outcome{
		Verdict:     verdict,
		CrashDetail: v.Result.Detail,
		Rounds:      v.Result.Rounds,
	}
	out.Stats = v.Result.Stats
	if in := v.Result.Input; in != nil {
		out.Input = *in
	}

	mech := bombs.PaperOutcome(v.Result.Label)
	cell := &Cell{
		Bomb:       b.Name,
		Tool:       p.Name(),
		Mechanical: mech,
		Got:        mech,
		Outcome:    out,
	}
	if ov, ok := p.Overrides[b.Name]; ok {
		cell.Got = ov.Outcome
		cell.Overridden = true
		cell.Note = ov.Note
	}
	if paperIdx >= 0 {
		cell.Paper = b.Paper[paperIdx]
		cell.Match = cell.Got == cell.Paper
	}
	return cell, nil
}
