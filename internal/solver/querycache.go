package solver

import (
	"encoding/hex"
	"sync"

	"repro/internal/sharedcache"
	"repro/internal/sym"
)

// CachedResult is the seed-independent part of a bitvector Solve
// outcome, the unit a QueryCache tier stores. It is a pure function of
// the constraint slice and the conflict budget — the completion and
// minimization steps that depend on the caller's seed run after the
// cache — which is what lets replicas share entries without perturbing
// per-job verdicts.
type CachedResult struct {
	Status    Status
	Conflicts int64
	Model     map[string]uint64 // raw model; nil unless Status is sat
	Exact     string            // exactKey of the system; set unless Status is sat
}

// QueryCache is a tier behind a Cache's own LRU (see Cache.SetShared),
// such as the cross-replica sharedcache tier or an in-process
// NewMemoryTier shared by the engines of one process.
// Keys are the caller's business; Cache keys tiers with SharedKey
// (encoding revision, cross-process-stable digest and conflict budget),
// so a tier implementation must treat them as opaque JSON-safe strings.
// Implementations must be safe for concurrent use and must return Model
// maps the caller may keep.
type QueryCache interface {
	Lookup(key string) (CachedResult, bool)
	Store(key string, res CachedResult)
}

// SharedTier adapts a sharedcache.Tier (the cross-replica file-backed
// tier) into a QueryCache.
func SharedTier(t *sharedcache.Tier) QueryCache {
	if t == nil {
		return nil
	}
	return sharedTier{t}
}

type sharedTier struct{ t *sharedcache.Tier }

func (s sharedTier) Lookup(key string) (CachedResult, bool) {
	e, ok := s.t.Lookup(key)
	if !ok {
		return CachedResult{}, false
	}
	return CachedResult{Status: Status(e.Status), Conflicts: e.Conflicts, Model: e.Model, Exact: e.Exact}, true
}

func (s sharedTier) Store(key string, res CachedResult) {
	s.t.Store(sharedcache.Entry{
		Key:       key,
		Status:    int(res.Status),
		Conflicts: res.Conflicts,
		Model:     res.Model,
		Exact:     res.Exact,
	})
}

// NewMemoryTier returns an in-process QueryCache: a mutex-guarded LRU
// of CachedResults bounded to capacity entries (DefaultCacheSize when
// capacity <= 0). Caches sharing it share their solved queries the way
// replicas share the file tier, through the same digest keys and the
// same validation, and nothing outlives the process. Lookup returns the
// stored Model map itself: Cache only reads it and stores a copy.
func NewMemoryTier(capacity int) QueryCache {
	return &memoryTier{entries: newLRU[CachedResult](capacity)}
}

type memoryTier struct {
	mu      sync.Mutex
	entries *lru[CachedResult]
}

func (m *memoryTier) Lookup(key string) (CachedResult, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries.get(key)
}

// Store keeps the first entry under a key, as the file tier does.
func (m *memoryTier) Store(key string, res CachedResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries.add(key, res)
}

// exactKey is the hex sym.StableKey of a system: the collision-checked
// identity a tier entry must carry before its unsat or unknown verdict
// is trusted.
func exactKey(constraints []sym.Expr) string {
	return hex.EncodeToString([]byte(sym.StableKey(constraints)))
}

// validateShared converts an entry from a QueryCache tier back into a
// raw in-memory result. Tier keys are lossy 64-bit-per-constraint
// digests, so no entry is trusted on its key alone: a satisfying model
// must satisfy the system, and an unsat or unknown verdict must carry
// the system's exact key. A digest collision or a stale, foreign or
// corrupt store degrades to a miss, never to a wrong verdict.
func validateShared(res CachedResult, constraints []sym.Expr) (cachedResult, bool) {
	switch res.Status {
	case StatusUnsat, StatusUnknown:
		if res.Exact == "" || res.Exact != exactKey(constraints) {
			return cachedResult{}, false
		}
		return cachedResult{status: res.Status, conflicts: res.Conflicts}, true
	case StatusSat:
		for _, c := range constraints {
			if sym.Eval(c, res.Model) != 1 {
				return cachedResult{}, false
			}
		}
		return cachedResult{status: StatusSat, conflicts: res.Conflicts, model: res.Model}, true
	}
	return cachedResult{}, false
}
