package solver

import (
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
}

// QueryCache is a persistent or remote tier behind the in-memory LRU
// (see Cache.SetShared), such as the cross-replica sharedcache tier.
// Keys are the caller's business; Cache keys tiers with
// cross-process-stable digests ("d:" + sym.DigestKey + ":" + conflict
// budget), so a tier implementation must treat them as opaque JSON-safe
// strings. Implementations must be safe for concurrent use and must
// return Model maps the caller may keep.
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
	return CachedResult{Status: Status(e.Status), Conflicts: e.Conflicts, Model: e.Model}, true
}

func (s sharedTier) Store(key string, res CachedResult) {
	s.t.Store(sharedcache.Entry{
		Key:       key,
		Status:    int(res.Status),
		Conflicts: res.Conflicts,
		Model:     res.Model,
	})
}

// validateShared converts a persisted entry — from a QueryCache tier or
// the portfolio's warm-start store — back into a raw in-memory result,
// distrusting satisfying models that do not satisfy the system: a digest
// collision or a stale, foreign or corrupt store must degrade to a miss,
// never to a wrong verdict.
func validateShared(res CachedResult, constraints []sym.Expr) (cachedResult, bool) {
	switch res.Status {
	case StatusUnsat, StatusUnknown:
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
