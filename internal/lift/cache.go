package lift

import (
	"sync"

	"repro/internal/ir"
	"repro/internal/isa"
)

// The symbolic pass lifts every trace entry of every round, and the bulk
// of those entries belong to a shared prefix that was already lifted —
// possibly thousands of times — by earlier rounds. Lifting is a pure function of (instruction, fall-through
// PC, options), so a process-wide memo table turns all of that repeat
// work into a map hit. Callers must treat the returned statement slice
// as immutable; the symbolic executor only evaluates statements, never
// rewrites them.

type liftKey struct {
	in     isa.Instr // comparable: all scalar fields
	nextPC uint64
	opts   Options
}

// cacheShards keeps the table from serializing the parallel engine's
// batch workers; the key's low PC bits pick a shard.
const cacheShards = 16

// cacheCapPerShard bounds growth: images are small (the whole benchmark
// is a few thousand distinct instructions), so the cap exists only as a
// backstop against pathological synthetic inputs. A full shard stops
// inserting; lifting stays correct, just unmemoized.
const cacheCapPerShard = 1 << 14

type liftShard struct {
	mu sync.RWMutex
	m  map[liftKey]liftEntry
}

type liftEntry struct {
	stmts []ir.Stmt
	err   error
}

var liftCache [cacheShards]liftShard

// Cached is Lift behind the process-wide memo table. Use it on hot paths
// that lift the same instructions repeatedly (the symbolic executor);
// one-shot callers can keep calling Lift directly.
func Cached(in isa.Instr, nextPC uint64, opts Options) ([]ir.Stmt, error) {
	k := liftKey{in: in, nextPC: nextPC, opts: opts}
	sh := &liftCache[nextPC%cacheShards]
	sh.mu.RLock()
	e, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		return e.stmts, e.err
	}
	stmts, err := Lift(in, nextPC, opts)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[liftKey]liftEntry)
	}
	if len(sh.m) < cacheCapPerShard {
		sh.m[k] = liftEntry{stmts: stmts, err: err}
	}
	sh.mu.Unlock()
	return stmts, err
}
