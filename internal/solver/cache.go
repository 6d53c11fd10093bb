package solver

import (
	"container/list"
	"context"
	"strconv"
	"sync"

	"repro/internal/sat"
	"repro/internal/sym"
)

// EncodingRevision names the bit-vector encoding whose results a shared
// tier holds, and starts every SharedKey. A tier entry is a pure
// function of the query only while the bit-blaster and the SAT search
// stay the same: a change to either can move the model a query returns
// or the conflict count behind a conflict-budget Unknown. Such a change
// renames the revision, so entries written before it (queries.jsonl
// outlives the binary) are never looked up again. "sdiv0" is the
// encoding whose signed division by a symbolic zero gives all ones, as
// sym.Eval does; before it, "divconst" divided by a constant as
// multiply-and-check and the restoring divider's entries were keyed "d".
const EncodingRevision = "sdiv0"

// SharedKey is the shared-tier key of a query: EncodingRevision, the
// system's cross-process-stable digest (sym.DigestKey) and the conflict
// budget, colon-separated.
func SharedKey(constraints []sym.Expr, maxConflicts int64) string {
	return EncodingRevision + ":" + sym.DigestKey(constraints) + ":" + strconv.FormatInt(maxConflicts, 10)
}

// Cache is a bounded LRU front for Solve. Negation queries inside one
// concolic run share long constraint prefixes, and parallel workers in a
// batch can issue the very same query before the scheduler's dedup maps
// catch up; the cache collapses those repeats into one SAT search.
//
// Only the bit-blasting path is cached. Its raw model is a pure function
// of the constraint slice and the conflict budget, so entries are keyed
// by sym.CanonicalKey plus the budget. With the hash-consing arena the
// key is the constraints' intern ids — O(1) per constraint, no tree walk
// or hashing — and stays exact: structurally equal systems map to one
// entry even when built by different workers. The seed-dependent steps
// (completion and minimization) run per call on a copy — a hit returns
// bit-for-bit what a fresh Solve would have. Float systems go through the
// stochastic search, whose result depends on the caller's seed, so they
// bypass the cache. Unknown verdicts caused by the wall-clock deadline
// (as opposed to the deterministic conflict budget) are not stored.
//
// A Cache may be backed by a shared tier (SetShared): a QueryCache that
// outlives the cache, such as the persistent cross-replica file tier or
// the in-process NewMemoryTier, consulted on LRU misses and written
// through on solves, keyed by SharedKey (the encoding revision, a
// cross-process-stable digest and the conflict budget). Because tier
// entries hold the same seed-independent raw results the LRU holds, a
// tier hit is bit-for-bit what a local solve would have produced —
// replicas share work without perturbing verdicts. Entries that arrived from the tier
// are tagged, and the SharedServed counter charges both the direct tier
// hit and every later LRU re-hit on such an entry: it answers "how many
// queries were decided by someone else's solve". The digest is lossy, so
// a tier sat model is re-checked against the system and a tier unsat or
// unknown verdict is served only under the system's exact key (the hex
// sym.StableKey stored with it); that key is computed only on non-sat
// stores and non-sat tier hits.
//
// A miss solves on one of the cache's own SAT solvers. A solver goes
// back Reset, keeping the buffers earlier queries grew, so a query
// allocates only where it outgrows them; Reset makes the reuse
// invisible to the search (DESIGN.md §9). A miss finding no idle solver
// makes one, so the cache keeps at most as many solvers as it has seen
// concurrent misses, and they are freed with it. Finishing a Sat model
// reads each constraint's variable list from a memo the cache keeps per
// interned constraint, also freed with it.
//
// A Cache is safe for concurrent use by multiple goroutines.
type Cache struct {
	mu      sync.Mutex
	entries *lru[cacheEntry]
	shared  QueryCache
	idle    []*sat.Solver // Reset solvers between misses
	vars    varLists      // each constraint's variables, for finishBV

	hits, misses, evictions, bypasses      uint64
	sharedHits, sharedMisses, sharedStores uint64
	sharedServed                           uint64
}

// DefaultCacheSize is the entry bound used when NewCache or
// NewMemoryTier is given a non-positive capacity.
const DefaultCacheSize = 4096

type cacheEntry struct {
	res        cachedResult
	fromShared bool // entry arrived from the shared tier, not a local solve
}

// cachedResult is the seed-independent part of a Solve outcome.
type cachedResult struct {
	status    Status
	conflicts int64
	model     map[string]uint64 // raw model; nil unless status is sat
}

// CacheStats is a snapshot of the cache counters. The Shared* counters
// cover the tier behind SetShared: SharedHits/SharedMisses count tier
// consults on LRU misses, SharedStores counts write-throughs, and
// SharedServed counts queries answered by a shared-born entry — the
// direct tier hit plus every later LRU re-hit on it.
type CacheStats struct {
	Hits, Misses, Evictions, Bypasses uint64
	SharedHits, SharedMisses          uint64
	SharedStores, SharedServed        uint64
	Len                               int
}

// HitRate returns hits / (hits + misses), or 0 with no lookups.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// NewCache returns an empty cache bounded to capacity entries
// (DefaultCacheSize when capacity <= 0). The entry map grows as it
// fills: most engines issue far fewer queries than the bound.
func NewCache(capacity int) *Cache {
	return &Cache{entries: newLRU[cacheEntry](capacity)}
}

// SetShared installs (or, with nil, removes) the shared tier consulted
// on LRU misses. Call before the cache is in use; the tier
// must be safe for concurrent use.
func (c *Cache) SetShared(q QueryCache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shared = q
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, Bypasses: c.bypasses,
		SharedHits: c.sharedHits, SharedMisses: c.sharedMisses,
		SharedStores: c.sharedStores, SharedServed: c.sharedServed,
		Len: c.entries.len(),
	}
}

// Solve behaves exactly like the package-level Solve, consulting the
// cache on the bitvector path.
func (c *Cache) Solve(constraints []sym.Expr, opts Options) (Result, error) {
	return c.SolveContext(context.Background(), constraints, opts)
}

// SolveContext is Solve under a cancellation context (see the package
// SolveContext). Unknown verdicts caused by cancellation are, like
// deadline timeouts, never stored: only results that depend purely on
// the constraint slice and the conflict budget enter the cache.
func (c *Cache) SolveContext(ctx context.Context, constraints []sym.Expr, opts Options) (Result, error) {
	if len(constraints) == 0 {
		return Result{}, ErrNoConstraints
	}
	applyDefaults(&opts)
	if hasConstFalse(constraints) {
		return Result{Status: StatusUnsat}, nil
	}
	if sym.HasFloat(constraints...) {
		c.mu.Lock()
		c.bypasses++
		c.mu.Unlock()
		return solveFloat(ctx, constraints, opts), nil
	}

	key := sym.CanonicalKey(constraints) + "|" + strconv.FormatInt(opts.MaxConflicts, 10)
	if res, ok := c.lookup(key); ok {
		return c.finishBV(res, constraints, opts), nil
	}

	// LRU miss: consult the shared tier before paying for a solve. The
	// digest key is computed only here — intern-id keys stay the fast
	// path for the (far more common) local hits.
	c.mu.Lock()
	shared := c.shared
	c.mu.Unlock()
	var sharedKey string
	if shared != nil {
		sharedKey = SharedKey(constraints, opts.MaxConflicts)
		if e, ok := shared.Lookup(sharedKey); ok {
			if res, ok := validateShared(e, constraints); ok {
				c.mu.Lock()
				c.sharedHits++
				c.sharedServed++
				c.mu.Unlock()
				c.storeTagged(key, cachedResult{status: res.status, conflicts: res.conflicts, model: cloneEnv(res.model)}, true)
				return c.finishBV(res, constraints, opts), nil
			}
		}
		c.mu.Lock()
		c.sharedMisses++
		c.mu.Unlock()
	}

	s := c.takeSolver()
	st, model, conflicts, timedOut, err := solveBV(ctx, s, constraints, opts)
	c.putSolver(s)
	if err != nil {
		return Result{}, err
	}
	res := cachedResult{status: st, conflicts: conflicts, model: model}
	if !timedOut {
		c.store(key, cachedResult{status: st, conflicts: conflicts, model: cloneEnv(model)})
		if shared != nil {
			entry := CachedResult{Status: st, Conflicts: conflicts, Model: cloneEnv(model)}
			if st != StatusSat {
				entry.Exact = exactKey(constraints)
			}
			shared.Store(sharedKey, entry)
			c.mu.Lock()
			c.sharedStores++
			c.mu.Unlock()
		}
	}
	return c.finishBV(res, constraints, opts), nil
}

// finishBV applies the caller-specific post-processing to a raw
// bitvector result. res.model is consumed only through a copy, so cached
// entries stay pristine.
func (c *Cache) finishBV(res cachedResult, constraints []sym.Expr, opts Options) Result {
	if res.status != StatusSat {
		return Result{Status: res.status, Conflicts: res.conflicts}
	}
	model := cloneEnv(res.model)
	completeModel(model, constraints, opts.Seed, &c.vars)
	minimizeModel(model, constraints, opts.Seed, &c.vars)
	return Result{Status: StatusSat, Model: model, Conflicts: res.conflicts}
}

// takeSolver returns an idle solver, or a new one when all are busy.
func (c *Cache) takeSolver() *sat.Solver {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.idle)
	if n == 0 {
		return sat.New()
	}
	s := c.idle[n-1]
	c.idle[n-1] = nil
	c.idle = c.idle[:n-1]
	return s
}

// putSolver resets s and returns it to the idle list.
func (c *Cache) putSolver(s *sat.Solver) {
	s.Reset()
	c.mu.Lock()
	c.idle = append(c.idle, s)
	c.mu.Unlock()
}

func (c *Cache) lookup(key string) (cachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.get(key)
	if !ok {
		c.misses++
		return cachedResult{}, false
	}
	c.hits++
	if e.fromShared {
		// A repeat of a query someone else solved: still their work.
		c.sharedServed++
	}
	return e.res, true
}

func (c *Cache) store(key string, res cachedResult) {
	c.storeTagged(key, res, false)
}

// storeTagged adds an entry. A key already present keeps its entry: a
// concurrent worker computed the same (deterministic) result.
func (c *Cache) storeTagged(key string, res cachedResult, fromShared bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictions += uint64(c.entries.add(key, cacheEntry{res: res, fromShared: fromShared}))
}

// lru is a map from string keys bounded to its capacity, evicting the
// least recently used entry. Its owner serialises access.
type lru[V any] struct {
	cap int
	ll  *list.List // of *lruItem[V]; front = most recent
	m   map[string]*list.Element
}

type lruItem[V any] struct {
	key string
	val V
}

// newLRU returns an empty lru bounded to capacity entries
// (DefaultCacheSize when capacity <= 0). The map grows as it fills.
func newLRU[V any](capacity int) *lru[V] {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &lru[V]{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// get returns the value under key and marks it most recently used.
func (l *lru[V]) get(key string) (V, bool) {
	el, ok := l.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// add stores v under key unless the key is present, which only marks it
// most recently used, and returns how many entries it evicted.
func (l *lru[V]) add(key string, v V) (evicted int) {
	if el, ok := l.m[key]; ok {
		l.ll.MoveToFront(el)
		return 0
	}
	l.m[key] = l.ll.PushFront(&lruItem[V]{key: key, val: v})
	for l.ll.Len() > l.cap {
		oldest := l.ll.Back()
		l.ll.Remove(oldest)
		delete(l.m, oldest.Value.(*lruItem[V]).key)
		evicted++
	}
	return evicted
}

func (l *lru[V]) len() int { return l.ll.Len() }
