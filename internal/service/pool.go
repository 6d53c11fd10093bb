package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/bombs"
	"repro/internal/core"
	"repro/internal/solver"
	"repro/internal/tools"
	"repro/internal/warmstore"
)

// Submission errors surfaced as HTTP statuses by the handlers.
var (
	// ErrQueueFull is backpressure: the bounded queue is at capacity
	// (HTTP 429).
	ErrQueueFull = errors.New("job queue is full")
	// ErrDraining rejects submissions during graceful shutdown (HTTP 503).
	ErrDraining = errors.New("server is draining")
)

// pool runs queued jobs on a fixed set of workers. The queue is a
// bounded channel: enqueue never blocks, it either claims a slot or
// reports backpressure so the handler can answer 429 immediately. With
// peers configured the pool moonlights as a stealer: when its queue is
// empty it leases queued jobs from siblings, runs them on the shared
// cache tier, and posts the results back.
type pool struct {
	store   *Store
	metrics *Metrics
	queue   chan *Job
	resolve func(string) (tools.Profile, bool)
	warm    *warmstore.Store  // nil unless concolicd opened -warmstart
	shared  solver.QueryCache // nil unless concolicd opened -sharedcache
	wg      sync.WaitGroup

	replica    string
	peers      []string
	stealEvery time.Duration
	stealLease time.Duration
	stealWG    sync.WaitGroup
	stopSteal  chan struct{}

	// baseCtx parents every job context; baseCancel is the drain
	// deadline's hard stop for still-running jobs.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	closed bool
}

func newPool(store *Store, metrics *Metrics, cfg Config) *pool {
	p := &pool{
		store:      store,
		metrics:    metrics,
		queue:      make(chan *Job, cfg.QueueDepth),
		resolve:    cfg.ResolveProfile,
		warm:       cfg.Warm,
		shared:     cfg.SharedCache,
		replica:    cfg.Replica,
		peers:      cfg.Peers,
		stealEvery: cfg.StealInterval,
		stealLease: cfg.StealLease,
		stopSteal:  make(chan struct{}),
	}
	p.baseCtx, p.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.work()
	}
	if len(p.peers) > 0 {
		p.stealWG.Add(1)
		go p.stealLoop()
	}
	p.stealWG.Add(1)
	go p.leaseReaper()
	return p
}

// depth reports how many jobs are waiting (not yet picked up).
func (p *pool) depth() int { return len(p.queue) }

// enqueue claims a queue slot for the job or reports backpressure.
func (p *pool) enqueue(j *Job) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrDraining
	}
	select {
	case p.queue <- j:
		return nil
	default:
		return ErrQueueFull
	}
}

func (p *pool) work() {
	defer p.wg.Done()
	for j := range p.queue {
		p.runJob(j)
	}
}

// jobContext builds the per-job context: cancel plus the optional
// budget deadline.
func (p *pool) jobContext(req Request) (context.Context, context.CancelFunc) {
	if req.BudgetMS > 0 {
		return context.WithTimeout(p.baseCtx, time.Duration(req.BudgetMS)*time.Millisecond)
	}
	return context.WithCancel(p.baseCtx)
}

// capsFor projects a validated request onto the resolved tool profile's
// engine capabilities — the one place the service decides what an
// engine run looks like, shared by the local and stolen-job paths so a
// stolen job runs exactly as it would have at home (plus this replica's
// shared cache tier, which cannot change verdicts).
func (p *pool) capsFor(req Request, prof *tools.Profile) {
	prof.Caps.Workers = req.Workers
	prof.Caps.SolverMode, _ = req.solverMode() // validated at submission
	if req.Strategy != "" {
		prof.Caps.Search, _ = req.searchStrategy() // validated at submission
	}
	prof.Caps.Fuzz = req.Fuzz
	prof.Caps.CoverGoal = req.CoverGoal
	if req.Warmstart && p.warm != nil {
		prof.Caps.Warm = p.warm
	}
	prof.Caps.SharedCache = p.shared
}

// runJob executes one job end to end: build the job context (cancel
// plus optional budget deadline), run the engine under it, and record
// the terminal state. The engine observes ctx.Done() between rounds,
// between negation queries and inside SAT search, so DELETE or a
// deadline stops the job mid-round.
func (p *pool) runJob(j *Job) {
	ctx, cancel := p.jobContext(j.Req)
	defer cancel()

	if !p.store.MarkRunning(j, cancel) {
		// Left the queued state while waiting (cancelled — already
		// counted by the Cancel path — or leased to a stealer).
		return
	}
	p.metrics.JobStarted()

	b, okB := bombs.ByName(j.Req.Bomb)
	prof, okT := p.resolve(j.Req.Tool)
	if !okB || !okT {
		// Validation runs at submission; this guards registry drift.
		p.store.Finish(j, StateFailed, nil, "request no longer resolvable")
		p.metrics.JobFinished(StateFailed, nil, true)
		return
	}
	p.capsFor(j.Req, &prof)
	prof.Caps.Progress = func(pr core.Progress) {
		p.store.AppendProgress(j, ProgressEvent{Progress: pr})
	}
	en := core.New(b.Image(), b.BombAddr(), prof.Caps)
	out := en.ExploreContext(ctx, b.Benign)

	state := StateDone
	if out.Verdict == core.VerdictCancelled {
		state = StateCancelled
	}
	p.store.Finish(j, state, resultFrom(out), "")
	p.metrics.JobFinished(state, &out.Stats, true)
}

// runRemote executes a job stolen from a peer. No local store is
// involved: the peer owns the lifecycle; this side only runs the engine
// (over the shared cache tier, so the work warms the fleet) and hands
// back {state, result}.
func (p *pool) runRemote(req Request) (State, *Result, string) {
	ctx, cancel := p.jobContext(req)
	defer cancel()

	b, okB := bombs.ByName(req.Bomb)
	prof, okT := p.resolve(req.Tool)
	if !okB || !okT {
		return StateFailed, nil, "request not resolvable on replica " + p.replica
	}
	p.capsFor(req, &prof)
	en := core.New(b.Image(), b.BombAddr(), prof.Caps)
	out := en.ExploreContext(ctx, b.Benign)
	state := StateDone
	if out.Verdict == core.VerdictCancelled {
		state = StateCancelled
	}
	return state, resultFrom(out), ""
}

// stealLoop polls the peers for queued work whenever the local queue is
// idle, runs what it gets, and posts results back (see fleet.go for the
// wire calls). One job at a time: stealing is a spare-cycles activity,
// never competition for the local queue.
func (p *pool) stealLoop() {
	defer p.stealWG.Done()
	t := time.NewTicker(p.stealEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stopSteal:
			return
		case <-p.baseCtx.Done():
			return
		case <-t.C:
		}
		if p.depth() > 0 {
			continue // local work first
		}
		for _, peer := range p.peers {
			p.stealFrom(peer)
		}
	}
}

// leaseReaper requeues jobs whose remote lease lapsed (stealer death).
// It runs on every server — any replica can be a steal victim.
func (p *pool) leaseReaper() {
	defer p.stealWG.Done()
	every := p.stealLease / 4
	if every < 100*time.Millisecond {
		every = 100 * time.Millisecond
	}
	if every > 5*time.Second {
		every = 5 * time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-p.stopSteal:
			return
		case <-p.baseCtx.Done():
			return
		case <-t.C:
		}
		for _, j := range p.store.ExpireLeases(time.Now()) {
			p.metrics.LeaseExpired()
			if err := p.enqueue(j); err != nil {
				p.store.Finish(j, StateFailed, nil, "lease expired; requeue failed: "+err.Error())
				p.metrics.JobFinished(StateFailed, nil, false)
			}
		}
	}
}

// drain closes the queue to new work and waits for the workers to
// finish everything already accepted. If ctx expires first, running
// jobs are hard-cancelled (their contexts fire) and the wait resumes —
// bounded, because cancelled engines return promptly.
func (p *pool) drain(ctx context.Context) {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
		close(p.stopSteal)
	}
	p.mu.Unlock()

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		p.stealWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		p.baseCancel()
		<-done
	}
}
