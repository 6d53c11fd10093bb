package service

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/sym"
)

// Metrics aggregates the service counters and renders them in the
// Prometheus text exposition format, hand-rolled so the service carries
// no dependency. Engine-level counters are each finished job's
// core.Stats, merged and rendered from the Stats schema.
type Metrics struct {
	mu sync.Mutex

	submitted uint64
	rejected  uint64 // queue-full 429s
	running   int
	finished  map[State]uint64

	engine core.Stats // finished jobs' engine counters, merged by Add

	rateLimited   uint64
	leased        uint64 // jobs leased out to stealers
	stolen        uint64 // peer jobs this replica ran
	leasesExpired uint64
	remoteResults uint64 // stolen-job results accepted back

	wallBuckets []uint64 // one per wallBucketBound, non-cumulative
	wallSum     float64
	wallCount   uint64
}

// wallBucketBounds are the job wall-time histogram upper bounds, in
// seconds; +Inf is implicit.
var wallBucketBounds = []float64{0.01, 0.05, 0.25, 1, 5, 15, 60, 300}

// NewMetrics returns zeroed counters.
func NewMetrics() *Metrics {
	return &Metrics{
		finished:    make(map[State]uint64),
		wallBuckets: make([]uint64, len(wallBucketBounds)),
	}
}

// JobSubmitted counts an accepted submission.
func (m *Metrics) JobSubmitted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.submitted++
}

// JobRejected counts a queue-full rejection.
func (m *Metrics) JobRejected() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejected++
}

// JobStarted counts a worker picking a job up.
func (m *Metrics) JobStarted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running++
}

// RateLimited counts a submission refused over a tenant budget (token
// bucket or active-job cap).
func (m *Metrics) RateLimited() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rateLimited++
}

// JobLeased counts a queued job handed to a stealing replica.
func (m *Metrics) JobLeased() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.leased++
}

// JobStolen counts a peer job this replica executed.
func (m *Metrics) JobStolen() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stolen++
}

// LeaseExpired counts a stolen job requeued after its lease lapsed;
// it also releases the running-gauge slot the lease claimed.
func (m *Metrics) LeaseExpired() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.leasesExpired++
	m.running--
}

// JobFinishedRemote counts a stolen job's result arriving from its
// stealer. The engine ran elsewhere; its counters arrive in the wire
// result and merge exactly as a local job's do.
func (m *Metrics) JobFinishedRemote(state State, res *Result, wasRunning bool) {
	var st *core.Stats
	if res != nil {
		st = &res.Stats
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.remoteResults++
	m.finish(state, st, wasRunning)
}

// JobFinished counts a terminal transition. st may be nil (a job
// cancelled while queued never ran); wasRunning balances the running
// gauge.
func (m *Metrics) JobFinished(state State, st *core.Stats, wasRunning bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finish(state, st, wasRunning)
}

// finish is the shared terminal-transition merge; call with m.mu held.
func (m *Metrics) finish(state State, st *core.Stats, wasRunning bool) {
	m.finished[state]++
	if wasRunning {
		m.running--
	}
	if st == nil {
		return
	}
	m.engine.Add(st)
	sec := st.WallTime.Seconds()
	m.wallSum += sec
	m.wallCount++
	for i, bound := range wallBucketBounds {
		if sec <= bound {
			m.wallBuckets[i]++
			break
		}
	}
}

// Render writes the Prometheus text exposition. Queue depth/capacity and
// worker count are owned by the pool and passed in.
func (m *Metrics) Render(queueDepth, queueCap, workers int) string {
	m.mu.Lock()
	defer m.mu.Unlock()

	var b strings.Builder
	series := func(name, help, typ string, v interface{}) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
	}
	gauge := func(name, help string, v interface{}) { series(name, help, "gauge", v) }
	counter := func(name, help string, v uint64) { series(name, help, "counter", v) }

	counter("concolicd_jobs_submitted_total", "Jobs accepted into the queue.", m.submitted)
	counter("concolicd_jobs_rejected_total", "Submissions rejected with 429 (queue full).", m.rejected)

	fmt.Fprintf(&b, "# HELP concolicd_jobs_finished_total Jobs reaching a terminal state.\n")
	fmt.Fprintf(&b, "# TYPE concolicd_jobs_finished_total counter\n")
	states := []State{StateDone, StateCancelled, StateFailed}
	for _, st := range states {
		fmt.Fprintf(&b, "concolicd_jobs_finished_total{state=%q} %d\n", st, m.finished[st])
	}

	gauge("concolicd_jobs_running", "Jobs currently executing on the worker pool.", m.running)
	gauge("concolicd_queue_depth", "Jobs waiting in the queue.", queueDepth)
	gauge("concolicd_queue_capacity", "Queue bound; submissions beyond it receive 429.", queueCap)
	gauge("concolicd_workers", "Worker pool size.", workers)

	for _, f := range core.StatFields() {
		if f.Prom == "" {
			continue
		}
		series(f.Prom, f.Help, "counter", f.Format(&m.engine))
	}
	gauge("concolicd_solver_cache_hit_ratio", "Cache hits over lookups across finished jobs.", fmt.Sprintf("%.4f", m.engine.CacheHitRate()))

	counter("concolicd_ratelimited_total", "Submissions refused over a tenant budget (429).", m.rateLimited)
	counter("concolicd_steal_leased_total", "Queued jobs leased out to stealing replicas.", m.leased)
	counter("concolicd_steal_stolen_total", "Peer jobs this replica executed.", m.stolen)
	counter("concolicd_steal_lease_expired_total", "Stolen jobs requeued after their lease lapsed.", m.leasesExpired)
	counter("concolicd_steal_remote_results_total", "Stolen-job results accepted back from stealers.", m.remoteResults)

	// The process-wide coverage tracker is shared by every job (like the
	// sym arena), so its population is read live rather than summed.
	gauge("concolicd_cover_global_edges", "Distinct control-flow edges ever covered in this process.", cover.Global().Edges())
	gauge("concolicd_cover_global_blocks", "Distinct basic blocks ever covered in this process.", cover.Global().Blocks())

	// Hash-consing arena counters are process-global (the arena is shared
	// by every job), so they are read live rather than summed from
	// Outcome.Stats deltas.
	as := sym.ArenaSnapshot()
	gauge("concolicd_sym_arena_nodes", "Distinct interned sym terms alive in the process arena.", as.Size)
	counter("concolicd_sym_intern_hits_total", "Constructor calls answered by an existing arena node.", as.Hits)
	counter("concolicd_sym_intern_misses_total", "Constructor calls that allocated a new arena node.", as.Misses)
	counter("concolicd_sym_intern_fallbacks_total", "Constructor calls past the arena cap (un-interned nodes).", as.Fallbacks)
	gauge("concolicd_sym_intern_hit_ratio", "Arena hits over lookups since process start.", fmt.Sprintf("%.4f", as.HitRate()))

	fmt.Fprintf(&b, "# HELP concolicd_job_wall_seconds Engine wall time per finished job.\n")
	fmt.Fprintf(&b, "# TYPE concolicd_job_wall_seconds histogram\n")
	cum := uint64(0)
	for i, bound := range wallBucketBounds {
		cum += m.wallBuckets[i]
		fmt.Fprintf(&b, "concolicd_job_wall_seconds_bucket{le=\"%g\"} %d\n", bound, cum)
	}
	fmt.Fprintf(&b, "concolicd_job_wall_seconds_bucket{le=\"+Inf\"} %d\n", m.wallCount)
	fmt.Fprintf(&b, "concolicd_job_wall_seconds_sum %g\n", m.wallSum)
	fmt.Fprintf(&b, "concolicd_job_wall_seconds_count %d\n", m.wallCount)
	return b.String()
}
