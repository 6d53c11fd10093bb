package solver

import (
	"context"
	"strconv"
	"time"

	"repro/internal/bitblast"
	"repro/internal/sat"
	"repro/internal/sym"
)

// SessionOptions configures an incremental Session.
type SessionOptions struct {
	// Options carries the per-Check budgets, FP mode, seed and random
	// seed; MaxConflicts and Timeout are charged per Check, not over the
	// session's lifetime.
	Options
	// Cache, when non-nil, is consulted before and updated after each
	// Check. Incremental raw models depend on the session's history (the
	// solver carries learned clauses, activities and saved phases across
	// Checks), not just on the constraint slice, so session entries live
	// under their own key namespace and a shared Cache is deterministic
	// only when sessions use it from a single goroutine in a fixed
	// order — which is why the engine wires its cache into sessions only
	// for sequential exploration.
	Cache *Cache
}

// SessionStats is the work profile of one Session.
type SessionStats struct {
	// Asserts counts prefix constraints added to the session.
	Asserts int
	// Checks counts Check calls, however they were decided.
	Checks int
	// IncrementalChecks counts Checks decided on the persistent SAT
	// instance (as opposed to const-false shortcuts, float routing,
	// cache hits, or overflow bailouts).
	IncrementalChecks int
	// GuardLiterals counts guard literals allocated for Checks.
	GuardLiterals int
	// LearnedRetained sums, over incremental Checks after the first, the
	// learned clauses alive on the instance when the Check started — the
	// reuse an equivalent fresh solver would have thrown away.
	LearnedRetained int64
	// CacheHits counts Checks answered from the session cache.
	CacheHits int
	// Conflicts sums SAT conflicts across incremental Checks.
	Conflicts int64
}

// Session is an incremental solving context over one growing constraint
// prefix. Assert extends the prefix; Check decides prefix ∧ negated
// without disturbing the prefix, encoding the negation once behind a
// fresh guard literal, solving under the assumption [g], and retiring
// the guard with a permanent ~g afterwards. The SAT instance, the
// Tseitin circuit and the structural gate cache persist across Checks,
// so a round's negation queries — which share the whole path prefix —
// skip the per-query re-blasting and re-search that a fresh Solve pays.
//
// Verdict semantics match SolveContext query by query: constant-false
// shortcut first, then float routing to the stochastic search, then the
// bitvector path; gate-budget overflow is sticky and reports Unknown.
// Models may legitimately differ from fresh solving (both satisfy the
// system) because the incremental search starts from retained state.
//
// A Session is not safe for concurrent use.
type Session struct {
	ctx   context.Context
	opts  Options
	cache *Cache

	sat *sat.Solver
	enc *bitblast.Encoder

	prefix []sym.Expr
	system []sym.Expr // scratch: prefix + negated

	constFalse bool // some prefix constraint is literally false
	float      bool // some prefix constraint bears float operators
	overflow   bool // encoder tripped its gate budget

	stats SessionStats
}

// NewSession opens an incremental session. ctx cancellation makes
// in-flight and subsequent Checks give up with StatusUnknown, exactly
// like SolveContext.
func NewSession(ctx context.Context, opts SessionOptions) *Session {
	applyDefaults(&opts.Options)
	if ctx == nil {
		ctx = context.Background()
	}
	s := sat.New()
	return &Session{
		ctx:   ctx,
		opts:  opts.Options,
		cache: opts.Cache,
		sat:   s,
		enc:   bitblast.New(s),
	}
}

func (s *Session) interrupted() bool { return s.ctx.Err() != nil }

// Assert appends constraints to the session's path prefix. Each is
// encoded once, permanently; constraints already implied by earlier
// Checks' circuits reuse their gates through the structural cache.
// Errors are absorbed into the session verdict state (constant-false,
// float routing, budget overflow) the same way SolveContext folds them
// into per-query verdicts.
func (s *Session) Assert(constraints ...sym.Expr) {
	for _, c := range constraints {
		if c == nil {
			continue
		}
		s.prefix = append(s.prefix, c)
		s.stats.Asserts++
		if k, ok := c.(*sym.Const); ok && k.V == 0 {
			s.constFalse = true
		}
		if s.constFalse || s.float || s.overflow {
			continue // SAT instance no longer consulted or usable
		}
		if sym.HasFloat(c) {
			s.float = true
			continue
		}
		if err := s.enc.Assert(c); err != nil {
			switch err {
			case bitblast.ErrBudget:
				s.overflow = true
			case bitblast.ErrFloat:
				s.float = true
			default:
				// Malformed constraint (wrong width); treat the prefix
				// as unencodable rather than panicking mid-round.
				s.overflow = true
			}
		}
	}
}

// Prefix returns the constraints asserted so far (shared slice; do not
// mutate).
func (s *Session) Prefix() []sym.Expr { return s.prefix }

// Stats returns the session work profile so far.
func (s *Session) Stats() SessionStats { return s.stats }

// Check decides prefix ∧ negated under the session options.
func (s *Session) Check(negated sym.Expr) (Result, error) {
	return s.CheckSeeded(negated, s.opts.RandSeed)
}

// CheckSeeded is Check with a per-query random seed for the stochastic
// float search, mirroring the per-query seeds the engine derives in
// fresh mode so float verdicts agree between the two paths.
func (s *Session) CheckSeeded(negated sym.Expr, randSeed int64) (Result, error) {
	if negated == nil {
		return Result{}, ErrNoConstraints
	}
	s.stats.Checks++
	opts := s.opts
	opts.RandSeed = randSeed

	// Mirror SolveContext's routing order exactly: constant-false
	// shortcut, then float, then the bitvector path.
	if s.constFalse {
		return Result{Status: StatusUnsat}, nil
	}
	if k, ok := negated.(*sym.Const); ok && k.V == 0 {
		return Result{Status: StatusUnsat}, nil
	}
	system := append(append(s.system[:0], s.prefix...), negated)
	s.system = system
	if s.float || sym.HasFloat(negated) {
		return solveFloat(s.ctx, system, opts), nil
	}

	var key string
	if s.cache != nil {
		// Namespaced apart from fresh-mode entries: an incremental raw
		// model is not a pure function of the constraint slice.
		key = sym.CanonicalKey(system) + "|" + strconv.FormatInt(opts.MaxConflicts, 10) + "|inc"
		if res, ok := s.cache.lookup(key); ok {
			s.stats.CacheHits++
			return finishBV(res, system, opts), nil
		}
	}

	if s.overflow {
		return Result{Status: StatusUnknown}, nil
	}

	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
	}
	if d, ok := s.ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	expired := func() bool {
		return s.interrupted() || (!deadline.IsZero() && time.Now().After(deadline))
	}
	if expired() {
		return Result{Status: StatusUnknown}, nil
	}

	g, err := s.enc.AssertGuarded(negated)
	if err != nil {
		switch err {
		case bitblast.ErrBudget:
			s.overflow = true
			return Result{Status: StatusUnknown}, nil
		case bitblast.ErrFloat:
			return Result{Status: StatusFloatUnsupported}, nil
		default:
			return Result{}, err
		}
	}
	s.stats.GuardLiterals++
	if s.stats.IncrementalChecks > 0 {
		s.stats.LearnedRetained += s.sat.Stats().LearnedLive()
	}
	s.stats.IncrementalChecks++

	before := s.sat.Stats().Conflicts
	st := s.sat.SolveAssuming([]sat.Lit{g}, opts.MaxConflicts, deadline, s.interrupted)
	conflicts := s.sat.Stats().Conflicts - before
	s.stats.Conflicts += conflicts

	var res cachedResult
	timedOut := false
	switch st {
	case sat.Sat:
		res = cachedResult{status: StatusSat, conflicts: conflicts, model: s.enc.Model()}
	case sat.Unsat:
		res = cachedResult{status: StatusUnsat, conflicts: conflicts}
	default:
		timedOut = expired()
		res = cachedResult{status: StatusUnknown, conflicts: conflicts}
	}
	// Retire the guard so the negation never constrains later queries.
	s.sat.AddClause(g.Not())

	if s.cache != nil && !timedOut {
		s.cache.store(key, cachedResult{status: res.status, conflicts: res.conflicts, model: cloneEnv(res.model)})
	}
	return finishBV(res, system, opts), nil
}
