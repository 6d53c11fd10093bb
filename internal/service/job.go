package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/bombs"
	"repro/internal/cliopts"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/suggest"
	"repro/internal/tools"
)

// State is a job's lifecycle position.
type State string

// Job states. queued -> running -> done | failed; cancellation can strike
// either live state.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateCancelled State = "cancelled"
	StateFailed    State = "failed"
)

// Terminal reports whether no further transition is possible.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// Request is the analysis a client submits: which bomb, which tool
// profile, how many engine workers, which solver mode ("" or "fresh"
// for a SAT instance per query, "incremental" for per-round
// assumption-based sessions, "portfolio" for racing diversified
// workers with shared learned clauses), whether to use the server's
// warm-start store (portfolio only; requires concolicd -warmstart),
// and an optional per-job wall-clock budget that becomes the
// exploration context's deadline.
type Request struct {
	// Bomb is the legacy target field: the name of a registered logic
	// bomb. New clients should submit Target instead; Validate folds a
	// kind=bomb target into this field so the rest of the service (and
	// the persisted job journal) sees one canonical form either way.
	Bomb string `json:"bomb,omitempty"`
	// Target is the versioned target object. Today the only served kind
	// is "bomb"; "gofunc" (a Go function lowered by the congolic
	// frontend) is reserved and rejected with a self-explaining error.
	Target    *TargetSpec `json:"target,omitempty"`
	Tool      string      `json:"tool"`
	Workers   int         `json:"workers,omitempty"`
	Solver    string      `json:"solver,omitempty"`
	Warmstart bool        `json:"warmstart,omitempty"`
	BudgetMS  int64       `json:"budget_ms,omitempty"`
	// Strategy selects the frontier search order ("" or "generational",
	// "dfs", "coverage"); Fuzz enables the hybrid mutation stage
	// (coverage strategy only); CoverGoal, in (0, 1], stops the engine
	// early once that fraction of static basic blocks is covered.
	Strategy  string  `json:"strategy,omitempty"`
	Fuzz      bool    `json:"fuzz,omitempty"`
	CoverGoal float64 `json:"cover_goal,omitempty"`
}

// TargetSpec is the versioned job target. Kind "bomb" names a
// registered logic bomb and is the only kind this server executes;
// kind "gofunc" is reserved for a future concolicd that hosts the
// congolic Go-function frontend (Pkg and Func name the function).
// Unknown kinds are rejected with the uniform suggestion error so an
// old server gives a new client an actionable 400 rather than a silent
// misroute.
type TargetSpec struct {
	Kind string `json:"kind"`
	Name string `json:"name,omitempty"` // bomb name (kind=bomb)
	Pkg  string `json:"pkg,omitempty"`  // package path (kind=gofunc)
	Func string `json:"func,omitempty"` // function name (kind=gofunc)
}

// TargetKinds are the schema's known target kinds, served or reserved.
func TargetKinds() []string { return []string{"bomb", "gofunc"} }

// normalizeTarget folds the versioned Target object into the legacy
// Bomb field, so validation and execution see one canonical request.
func (r *Request) normalizeTarget() error {
	if r.Target == nil {
		return nil
	}
	switch r.Target.Kind {
	case "bomb":
		if r.Target.Name == "" {
			return errors.New("target.name is required for target.kind=bomb")
		}
		if r.Bomb != "" && r.Bomb != r.Target.Name {
			return fmt.Errorf("bomb %q and target.name %q disagree; set one",
				r.Bomb, r.Target.Name)
		}
		r.Bomb = r.Target.Name
		return nil
	case "gofunc":
		return errors.New(`target.kind "gofunc" is reserved and not served by this replica: ` +
			`concolicd executes registered bombs only; run cmd/congolic locally to explore Go functions`)
	case "":
		return errors.New("target.kind is required when target is set")
	default:
		return suggest.Unknown("target kind", r.Target.Kind, TargetKinds())
	}
}

// Validate checks the request against the bomb registry and the tool
// table, filling the tool default. A miss on the bomb name carries a
// closest-name suggestion, mirroring the concolic CLI.
func (r *Request) Validate() error {
	if err := r.normalizeTarget(); err != nil {
		return err
	}
	if r.Bomb == "" {
		return errors.New("missing required field: bomb (or a target object)")
	}
	if _, ok := bombs.ByName(r.Bomb); !ok {
		msg := fmt.Sprintf("unknown bomb %q", r.Bomb)
		if s := bombs.Closest(r.Bomb); s != "" {
			msg += fmt.Sprintf(" — did you mean %q?", s)
		}
		return errors.New(msg)
	}
	if r.Tool == "" {
		r.Tool = "reference"
	}
	if _, ok := tools.ByName(r.Tool); !ok {
		return fmt.Errorf("unknown tool %q (choose from %s)",
			r.Tool, strings.Join(tools.Names(), ", "))
	}
	if err := cliopts.Check(cliopts.Options{
		Workers:   r.Workers,
		Solver:    r.Solver,
		Warmstart: r.Warmstart,
		Strategy:  r.Strategy,
		Fuzz:      r.Fuzz,
		CoverGoal: r.CoverGoal,
	}, cliopts.WireDialect); err != nil {
		return err
	}
	if r.BudgetMS < 0 {
		return errors.New("budget_ms must be non-negative")
	}
	return nil
}

// solverMode maps the wire field to the engine capability.
func (r *Request) solverMode() (core.SolverMode, error) {
	return core.ParseSolverMode(r.Solver)
}

// searchStrategy maps the wire field to the engine capability.
func (r *Request) searchStrategy() (core.SearchStrategy, error) {
	return core.ParseSearchStrategy(r.Strategy)
}

// SolvedInput is the detonating input of a solved job. Files values are
// base64 on the wire (encoding/json []byte convention).
type SolvedInput struct {
	Argv1   string            `json:"argv1"`
	TimeNow uint64            `json:"time,omitempty"`
	Pid     uint64            `json:"pid,omitempty"`
	Web     map[string]string `json:"web,omitempty"`
	Files   map[string][]byte `json:"files,omitempty"`
	Env     map[string]string `json:"env,omitempty"`
}

// Result is a finished job's outcome. Label is exactly the Table II
// cell eval.Classify produces for the same {bomb, tool, workers} tuple
// ("" = correctly unreachable), so service results compare byte-for-byte
// with the CLI and the evaluation harness.
type Result struct {
	Verdict string       `json:"verdict"`
	Label   string       `json:"label"`
	Detail  string       `json:"detail,omitempty"`
	Rounds  int          `json:"rounds"`
	Input   *SolvedInput `json:"input,omitempty"`
	Stats   core.Stats   `json:"stats"` // every engine counter, under its schema name
}

// resultFrom projects an engine outcome into the wire result.
func resultFrom(out *core.Outcome) *Result {
	res := &Result{
		Verdict: out.Verdict.String(),
		Label:   string(eval.Classify(out)),
		Detail:  out.CrashDetail,
		Rounds:  out.Rounds,
		Stats:   out.Stats,
	}
	if out.Verdict == core.VerdictSolved {
		res.Input = &SolvedInput{
			Argv1:   out.Input.Argv1,
			TimeNow: out.Input.TimeNow,
			Pid:     out.Input.Pid,
			Web:     out.Input.Web,
			Files:   out.Input.Files,
			Env:     out.Input.Env,
		}
	}
	return res
}

// ProgressEvent is one per-round streaming report: the engine's
// cumulative counters after a merged round (see core.Progress). Seq is
// the event's position in the job's progress sequence, the cursor for
// resuming a stream.
type ProgressEvent struct {
	Seq int `json:"seq"`
	core.Progress
}

// Job is one queued analysis. All fields are guarded by the owning
// Store's mutex; handlers only see View snapshots.
type Job struct {
	ID     string
	Req    Request
	Tenant string // API key the job was submitted under ("" = anonymous)

	State           State
	CancelRequested bool
	Submitted       time.Time
	Started         time.Time
	Finished        time.Time
	Error           string
	Result          *Result

	// Replica is the fleet member executing the job: "" while local,
	// the stealer's identity after a lease. LeaseExpiry bounds a remote
	// lease; past it the reaper requeues the job.
	Replica     string
	LeaseExpiry time.Time

	// progress accumulates per-round streaming events; notify is closed
	// and replaced whenever progress grows or the job reaches a terminal
	// state, waking streaming handlers.
	progress []ProgressEvent
	notify   chan struct{}

	cancel context.CancelFunc // set while running
}

// View is the JSON snapshot of a job served to clients.
type View struct {
	ID              string  `json:"id"`
	Bomb            string  `json:"bomb"`
	Tool            string  `json:"tool"`
	Workers         int     `json:"workers,omitempty"`
	Solver          string  `json:"solver,omitempty"`
	Warmstart       bool    `json:"warmstart,omitempty"`
	Strategy        string  `json:"strategy,omitempty"`
	Fuzz            bool    `json:"fuzz,omitempty"`
	CoverGoal       float64 `json:"cover_goal,omitempty"`
	BudgetMS        int64   `json:"budget_ms,omitempty"`
	State           State   `json:"state"`
	CancelRequested bool    `json:"cancel_requested,omitempty"`
	Tenant          string  `json:"tenant,omitempty"`
	Replica         string  `json:"replica,omitempty"`
	Submitted       string  `json:"submitted_at"`
	Started         string  `json:"started_at,omitempty"`
	Finished        string  `json:"finished_at,omitempty"`
	Error           string  `json:"error,omitempty"`
	Result          *Result `json:"result,omitempty"`
	Progress        int     `json:"progress_events,omitempty"`
}

// view snapshots the job; call with the store lock held.
func (j *Job) view() View {
	v := View{
		ID:              j.ID,
		Bomb:            j.Req.Bomb,
		Tool:            j.Req.Tool,
		Workers:         j.Req.Workers,
		Solver:          j.Req.Solver,
		Warmstart:       j.Req.Warmstart,
		Strategy:        j.Req.Strategy,
		Fuzz:            j.Req.Fuzz,
		CoverGoal:       j.Req.CoverGoal,
		BudgetMS:        j.Req.BudgetMS,
		State:           j.State,
		CancelRequested: j.CancelRequested,
		Tenant:          j.Tenant,
		Replica:         j.Replica,
		Submitted:       j.Submitted.UTC().Format(time.RFC3339Nano),
		Error:           j.Error,
		Result:          j.Result,
		Progress:        len(j.progress),
	}
	if !j.Started.IsZero() {
		v.Started = j.Started.UTC().Format(time.RFC3339Nano)
	}
	if !j.Finished.IsZero() {
		v.Finished = j.Finished.UTC().Format(time.RFC3339Nano)
	}
	return v
}
