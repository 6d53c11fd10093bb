// Package service is the concolicd serving layer: an HTTP JSON front
// end that accepts analysis jobs ({bomb, tool, workers, budget}), runs
// them on a bounded worker pool over the core engine, and exposes the
// job lifecycle — submit, inspect, list, cancel, stream progress — plus
// Prometheus-text metrics and a health probe. With a job store attached
// the lifecycle is disk-backed (queued work and finished results
// survive a restart), and with peers configured replicas steal queued
// jobs from each other, sharing solver work through the cross-replica
// query-cache tier.
//
// The contract with the engine is context cancellation: every job runs
// under its own context (cancelled by DELETE, expired by the per-job
// budget, or parented away during drain), and core.ExploreContext
// observes it between rounds, between negation queries, and inside SAT
// search. Verdicts are byte-identical to the concolic CLI for the same
// {bomb, tool, workers} tuple: the service adds scheduling around the
// engine, never inside it — and because the shared cache tier stores
// only seed-independent, budget-deterministic results, that holds at
// any fleet size too.
package service

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/bombs"
	"repro/internal/jobstore"
	"repro/internal/solver"
	"repro/internal/tools"
)

// Config sizes the service.
type Config struct {
	// QueueDepth bounds waiting jobs; submissions beyond it receive 429
	// (<= 0: DefaultQueueDepth).
	QueueDepth int
	// Workers is the job-level pool size (<= 0: runtime.GOMAXPROCS(0)).
	// Each job may additionally run engine-internal round workers as
	// requested per job.
	Workers int
	// ResolveProfile overrides tool-name resolution (tests inject reduced
	// budgets; a deployment could pin custom profiles). Nil means
	// tools.ByName. Validation still requires the name to exist there, so
	// a resolver only adjusts capabilities, it cannot widen the API.
	ResolveProfile func(name string) (tools.Profile, bool)
	// Jobs is the disk-backed job registry (concolicd -store). Nil keeps
	// the registry in memory. On New, persisted jobs are replayed: done
	// jobs' results become fetchable again and queued/running jobs are
	// re-enqueued. The caller owns the store's lifecycle.
	Jobs *jobstore.Log
	// SharedCache is the cross-replica solver-query tier (concolicd
	// -sharedcache): every job's engine reads and writes it, so a fleet
	// sharing one tier answers repeated negation queries once. Nil keeps
	// solving replica-local.
	SharedCache solver.QueryCache
	// Replica names this fleet member (shown on stolen jobs). Peers lists
	// sibling base URLs (e.g. http://host:8080) to steal queued jobs from
	// when the local queue is empty; empty disables stealing.
	Replica string
	Peers   []string
	// StealInterval paces the steal loop (<= 0: DefaultStealInterval);
	// StealLease bounds how long a stolen job may run before the lease
	// reaper requeues it (<= 0: DefaultStealLease).
	StealInterval time.Duration
	StealLease    time.Duration
	// RatePerSec/RateBurst shape the per-tenant submission token bucket
	// (tenant = X-API-Key header value). RatePerSec <= 0 disables it.
	// TenantMaxActive caps one tenant's queued+running jobs (<= 0: no
	// cap). Both reject with 429 and a Retry-After hint.
	RatePerSec      float64
	RateBurst       int
	TenantMaxActive int
	// Categories restricts which bomb corpora this replica accepts
	// (concolicd -categories): submissions whose bomb belongs to a
	// category outside the list are rejected as malformed requests.
	// Empty means every category is served. Useful for dedicating
	// replicas to a corpus, e.g. the extended taxonomy grid.
	Categories []string
}

// Defaults for the work-stealing loop.
const (
	DefaultQueueDepth    = 64
	DefaultStealInterval = 500 * time.Millisecond
	DefaultStealLease    = 30 * time.Second
)

// Server ties the store, pool and metrics together behind an http.Handler.
type Server struct {
	store      *Store
	pool       *pool
	metrics    *Metrics
	mux        *http.ServeMux
	queueCap   int
	workers    int
	limiter    *limiter
	tenantMax  int
	stealLease time.Duration
	categories map[bombs.Category]bool // nil: every category served
	draining   atomic.Bool
}

// New builds a ready-to-serve instance; its workers start immediately,
// and jobs recovered from cfg.Jobs are re-enqueued before the first
// submission can land.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.ResolveProfile == nil {
		cfg.ResolveProfile = tools.ByName
	}
	if cfg.StealInterval <= 0 {
		cfg.StealInterval = DefaultStealInterval
	}
	if cfg.StealLease <= 0 {
		cfg.StealLease = DefaultStealLease
	}
	s := &Server{
		store:      NewStore(),
		metrics:    NewMetrics(),
		queueCap:   cfg.QueueDepth,
		workers:    cfg.Workers,
		limiter:    newLimiter(cfg.RatePerSec, cfg.RateBurst),
		tenantMax:  cfg.TenantMaxActive,
		stealLease: cfg.StealLease,
	}
	if len(cfg.Categories) > 0 {
		s.categories = make(map[bombs.Category]bool, len(cfg.Categories))
		for _, c := range cfg.Categories {
			s.categories[bombs.Category(c)] = true
		}
	}
	requeue := s.store.Recover(cfg.Jobs)
	s.pool = newPool(s.store, s.metrics, cfg)
	for _, j := range requeue {
		if err := s.pool.enqueue(j); err != nil {
			// More recovered work than queue: fail the overflow loudly
			// rather than strand it in a queued state nothing will run.
			s.store.Finish(j, StateFailed, nil, "recovery overflowed the queue: "+err.Error())
		}
	}
	s.routes()
	return s
}

// Handler returns the HTTP interface.
func (s *Server) Handler() http.Handler { return s.mux }

// Submit enqueues a job for the anonymous tenant (the embedding/CLI
// path; HTTP goes through SubmitAs).
func (s *Server) Submit(req Request) (View, error) { return s.SubmitAs(req, "") }

// SubmitAs validates and enqueues a job under a tenant identity. It
// returns ErrQueueFull under backpressure, ErrDraining during shutdown,
// a RateLimitError over a tenant budget, and a RequestError for
// malformed requests.
func (s *Server) SubmitAs(req Request, tenant string) (View, error) {
	if s.draining.Load() {
		return View{}, ErrDraining
	}
	if ok, wait := s.limiter.allow(tenant, time.Now()); !ok {
		s.metrics.RateLimited()
		return View{}, rateLimited(wait)
	}
	if s.tenantMax > 0 {
		if active := s.store.ActiveByTenant(tenant); active >= s.tenantMax {
			s.metrics.RateLimited()
			return View{}, tenantBusy(active, s.tenantMax)
		}
	}
	if err := req.Validate(); err != nil {
		return View{}, &RequestError{err}
	}
	if s.categories != nil {
		b, _ := bombs.ByName(req.Bomb) // Validate guarantees existence
		if !s.categories[b.Category] {
			return View{}, &RequestError{fmt.Errorf(
				"bomb %q is in category %q, which this replica does not serve",
				req.Bomb, b.Category)}
		}
	}
	j := s.store.Add(req, tenant)
	if err := s.pool.enqueue(j); err != nil {
		s.store.Remove(j.ID)
		if err == ErrQueueFull {
			s.metrics.JobRejected()
		}
		return View{}, err
	}
	s.metrics.JobSubmitted()
	v, _ := s.store.View(j.ID)
	return v, nil
}

// Cancel requests cancellation of the named job (see Store.RequestCancel).
func (s *Server) Cancel(id string) (State, error) {
	st, err := s.store.RequestCancel(id)
	if err == nil && st == StateCancelled {
		// Cancelled while queued: it never reaches a worker, count it here.
		s.metrics.JobFinished(StateCancelled, nil, false)
	}
	return st, err
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain begins graceful shutdown: new submissions are rejected with
// 503, accepted jobs run to completion, and when ctx expires the
// still-running jobs are cancelled through their contexts. It returns
// once the pool is idle.
func (s *Server) Drain(ctx context.Context) {
	s.draining.Store(true)
	s.pool.drain(ctx)
}

// RequestError marks a malformed submission (HTTP 400).
type RequestError struct{ err error }

func (e *RequestError) Error() string { return e.err.Error() }
func (e *RequestError) Unwrap() error { return e.err }
