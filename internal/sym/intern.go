package sym

// Hash-consed expression arena. Every constructor-built node is interned
// in a process-wide structural table, so structural equality between
// constructor-built expressions IS pointer equality: building the same
// term twice — in the same goroutine or from concurrent engine workers —
// returns the same *Const/*Var/*Bin/*Un/*ITE pointer. Each interned node
// carries a precomputed 64-bit structural digest, a saturating tree-node
// count, flags summarizing the subtree (float operators, environment
// variables, if-then-else nodes) and a unique intern id, all assigned
// exactly once at construction.
//
// The invariant the rest of the pipeline builds on:
//
//   - sym.CanonicalKey is O(1) per constraint (it concatenates intern
//     ids instead of re-walking the DAG);
//   - bitblast.Encoder's per-node CNF cache hits on structurally equal
//     subterms even when they were built through different paths;
//   - the engine's flip-dedup keys use digests instead of O(tree)
//     String() renderings.
//
// Identity is exact, never probabilistic: the table is keyed on full
// structural keys (operator, width, arguments, canonical child
// pointers), so two digests colliding can never merge distinct terms —
// the digest only picks the shard and seeds fast hashing downstream.
//
// Concurrency and determinism: the table is sharded 64 ways, each shard
// behind its own RWMutex, so the parallel engine's batch workers share
// one arena without a global bottleneck. Interning is a pure function of
// structure — whichever worker gets there first creates the node, and
// every later builder of the same term receives that pointer — so batch-
// synchronous replay stays deterministic: nothing observable depends on
// arrival order (intern ids are compared only for equality, never for
// order).
//
// The arena is append-only and capped: past ArenaCap nodes, constructors
// fall back to fresh un-interned nodes (digests still precomputed) and
// every consumer degrades gracefully to its structural slow path. Nodes
// built as raw struct literals (tests, fuzzers) are likewise un-interned
// until passed through Intern.

import (
	"strings"
	"sync"
	"sync/atomic"
)

// hc is the hash-consing metadata embedded in every node. id is the
// unique intern id (0 = not interned), dig the 64-bit structural digest
// (0 = not yet computed; computed digests are never 0), tn the
// saturating tree-node count (0 = unknown), fl the subtree's node flags
// (0 = unknown).
type hc struct {
	id  uint64
	dig uint64
	tn  uint64
	fl  uint8
}

// Node flags summarize what a subtree contains, so HasFloat, HasEnvVar
// and HasITE are a field read on constructor-built nodes.
const (
	flKnown uint8 = 1 << iota // the other bits are valid
	flFloat                   // a float operator: float BinOp, OpI2F or OpF2I
	flEnv                     // a variable named EnvVarPrefix + ...
	flITE                     // an if-then-else node
)

// EnvVarPrefix starts the names of undeclared environment-derived
// variables (see package symexec).
const EnvVarPrefix = "env!"

func varFlags(name string) uint8 {
	if strings.HasPrefix(name, EnvVarPrefix) {
		return flKnown | flEnv
	}
	return flKnown
}

func binFlags(op BinOp) uint8 {
	if op.IsFloat() {
		return flKnown | flFloat
	}
	return flKnown
}

func unFlags(op UnOp) uint8 {
	if op == OpI2F || op == OpF2I {
		return flKnown | flFloat
	}
	return flKnown
}

// joinFlags adds the children's flags to a node's own; the result is
// unknown (0) unless every child's flags are known. A missing child
// passes flKnown.
func joinFlags(own, a, b, c uint8) uint8 {
	if a&b&c&flKnown == 0 {
		return 0
	}
	return own | a | b | c
}

// meta returns the node's embedded metadata, or nil for foreign Expr
// implementations.
func meta(e Expr) *hc {
	switch t := e.(type) {
	case *Const:
		return &t.hc
	case *Var:
		return &t.hc
	case *Bin:
		return &t.hc
	case *Un:
		return &t.hc
	case *ITE:
		return &t.hc
	}
	return nil
}

// Interned reports whether e is the canonical arena node for its
// structure. For two interned expressions, e1 == e2 iff they are
// structurally equal.
func Interned(e Expr) bool {
	m := meta(e)
	return m != nil && m.id != 0
}

// InternID returns e's unique intern id, or 0 when e is not interned.
// Equal ids mean structurally equal terms; ids are process-local and
// compared only for equality.
func InternID(e Expr) uint64 {
	if m := meta(e); m != nil {
		return m.id
	}
	return 0
}

// ── structural digest ────────────────────────────────────────────────

// Digest kind tags keep the node spaces disjoint.
const (
	digConst uint64 = 0x9ae16a3b2f90404f
	digVar   uint64 = 0xc3a5c85c97cb3127
	digBin   uint64 = 0xb492b66fbe98f273
	digUn    uint64 = 0x9ddfea08eb382d69
	digITE   uint64 = 0xa0761d6478bd642f
)

// mix64 is the splitmix64 finalizer: full-avalanche over 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// digMix folds one word into a running digest.
func digMix(h, v uint64) uint64 {
	return mix64(h ^ (v*0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)))
}

// digDone makes a finished digest non-zero (0 is the "unset" sentinel).
func digDone(h uint64) uint64 {
	if h == 0 {
		return 1
	}
	return h
}

func digestConst(w int, v uint64) uint64 {
	return digDone(digMix(digMix(digConst, uint64(w)), v))
}

func digestVar(name string, w int) uint64 {
	h := digMix(digVar, uint64(w))
	// FNV-1a over the name, folded through the mixer.
	nh := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		nh ^= uint64(name[i])
		nh *= 1099511628211
	}
	return digDone(digMix(h, nh))
}

func digestBin(op BinOp, w int, da, db uint64) uint64 {
	h := digMix(digBin, uint64(op))
	h = digMix(h, uint64(w))
	h = digMix(h, da)
	return digDone(digMix(h, db))
}

func digestUn(op UnOp, w, arg, arg2 int, da uint64) uint64 {
	h := digMix(digUn, uint64(op))
	h = digMix(h, uint64(w))
	h = digMix(h, uint64(int64(arg)))
	h = digMix(h, uint64(int64(arg2)))
	return digDone(digMix(h, da))
}

func digestITE(dc, dt, de uint64) uint64 {
	h := digMix(digITE, dc)
	h = digMix(h, dt)
	return digDone(digMix(h, de))
}

// satAdd is a saturating tree-node-count add.
func satAdd(a, b uint64) uint64 {
	s := a + b
	if s < a {
		return ^uint64(0)
	}
	return s
}

// Digest returns e's 64-bit structural digest: a pure function of
// structure, identical across processes and independent of sharing. For
// interned (and cap-overflow) nodes it is a field read; for raw trees it
// is computed by a memoized walk. Distinct structures collide with
// probability ~2^-64 per pair; consumers needing exactness compare
// intern ids or CanonicalKeys instead.
func Digest(e Expr) uint64 {
	if m := meta(e); m != nil && m.dig != 0 {
		return m.dig
	}
	return digestWalk(e, make(map[Expr]uint64))
}

func digestWalk(e Expr, memo map[Expr]uint64) uint64 {
	if e == nil {
		return digDone(0)
	}
	if m := meta(e); m != nil && m.dig != 0 {
		return m.dig
	}
	if d, ok := memo[e]; ok {
		return d
	}
	var d uint64
	switch t := e.(type) {
	case *Const:
		d = digestConst(t.W, t.V)
	case *Var:
		d = digestVar(t.Name, t.W)
	case *Bin:
		d = digestBin(t.Op, t.w, digestWalk(t.A, memo), digestWalk(t.B, memo))
	case *Un:
		d = digestUn(t.Op, t.w, t.Arg, t.Arg2, digestWalk(t.A, memo))
	case *ITE:
		d = digestITE(digestWalk(t.Cond, memo),
			digestWalk(t.Then, memo), digestWalk(t.Else, memo))
	default:
		d = digDone(digMix(1, uint64(len(memo))))
	}
	memo[e] = d
	return d
}

// TreeNodes returns the number of nodes in e viewed as a tree (shared
// subterms counted at every occurrence), saturating at MaxUint64. The
// ratio TreeNodes/Size measures how much duplication hash-consing
// removed. Precomputed for interned nodes; a memoized walk otherwise.
func TreeNodes(e Expr) uint64 {
	if m := meta(e); m != nil && m.tn != 0 {
		return m.tn
	}
	return treeWalk(e, make(map[Expr]uint64))
}

func treeWalk(e Expr, memo map[Expr]uint64) uint64 {
	if e == nil {
		return 0
	}
	if m := meta(e); m != nil && m.tn != 0 {
		return m.tn
	}
	if n, ok := memo[e]; ok {
		return n
	}
	var n uint64 = 1
	switch t := e.(type) {
	case *Bin:
		n = satAdd(n, satAdd(treeWalk(t.A, memo), treeWalk(t.B, memo)))
	case *Un:
		n = satAdd(n, treeWalk(t.A, memo))
	case *ITE:
		n = satAdd(n, satAdd(treeWalk(t.Cond, memo),
			satAdd(treeWalk(t.Then, memo), treeWalk(t.Else, memo))))
	}
	memo[e] = n
	return n
}

// ── the arena ────────────────────────────────────────────────────────

// DefaultArenaCap bounds interned nodes process-wide. Past it,
// constructors return fresh un-interned nodes (digests still computed)
// and consumers use their structural slow paths; long-lived services
// stay memory-bounded instead of growing without limit.
const DefaultArenaCap = 4 << 20

const shardCount = 64 // power of two

// Structural keys. Child fields hold canonical (interned) pointers, so
// key equality is exact structural equality — the digest never decides
// identity, only the shard.
type constKey struct {
	w int
	v uint64
}
type varKey struct {
	name string
	w    int
}
type binKey struct {
	op   BinOp
	w    int
	a, b Expr
}
type unKey struct {
	op        UnOp
	w         int
	arg, arg2 int
	a         Expr
}
type iteKey struct {
	c, t, e Expr
}

type shard struct {
	mu     sync.RWMutex
	consts map[constKey]*Const
	vars   map[varKey]*Var
	bins   map[binKey]*Bin
	uns    map[unKey]*Un
	ites   map[iteKey]*ITE
}

type arenaT struct {
	shards [shardCount]shard
	cap    uint64

	size      atomic.Uint64 // interned nodes
	hits      atomic.Uint64 // constructions deduplicated onto an existing node
	misses    atomic.Uint64 // constructions that created a new node
	fallbacks atomic.Uint64 // constructions past the cap (un-interned)
	nextID    atomic.Uint64
}

func newArena(capacity uint64) *arenaT {
	a := &arenaT{cap: capacity}
	for i := range a.shards {
		s := &a.shards[i]
		s.consts = make(map[constKey]*Const)
		s.vars = make(map[varKey]*Var)
		s.bins = make(map[binKey]*Bin)
		s.uns = make(map[unKey]*Un)
		s.ites = make(map[iteKey]*ITE)
	}
	return a
}

var arena = newArena(DefaultArenaCap)

// ArenaStats is a snapshot of the process-wide interning counters.
type ArenaStats struct {
	// Size is the number of live interned nodes.
	Size uint64
	// Hits counts constructions that reused an existing node — the
	// number of duplicate nodes hash-consing eliminated.
	Hits uint64
	// Misses counts constructions that interned a new node.
	Misses uint64
	// Fallbacks counts constructions refused because the arena was full.
	Fallbacks uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 with no constructions.
func (s ArenaStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// ArenaSnapshot reads the interning counters. Counters are monotone, so
// two snapshots bracket the interning work of the interval between them.
func ArenaSnapshot() ArenaStats {
	return ArenaStats{
		Size:      arena.size.Load(),
		Hits:      arena.hits.Load(),
		Misses:    arena.misses.Load(),
		Fallbacks: arena.fallbacks.Load(),
	}
}

// resetArena replaces the arena; only for tests and benchmarks that
// need a cold table. Nodes interned before the reset keep working (their
// metadata is immutable) but are no longer canonical: expressions built
// before and after a reset must not be mixed in one comparison.
func resetArena(capacity uint64) {
	arena = newArena(capacity)
	// ids keep incrementing monotonically across resets, so a key built
	// from old ids can never alias a key built from new ones.
}

func (a *arenaT) shardFor(dig uint64) *shard {
	return &a.shards[(dig>>7)&(shardCount-1)]
}

// room reports whether a new node may still be interned.
func (a *arenaT) room() bool { return a.size.Load() < a.cap }

// admit stamps a freshly created node and accounts for it. Must be
// called with the shard lock held, after inserting into the map.
func (a *arenaT) admit(m *hc, dig, tn uint64, fl uint8) {
	m.dig = dig
	m.tn = tn
	m.fl = fl
	m.id = a.nextID.Add(1)
	a.size.Add(1)
	a.misses.Add(1)
}

// internConst returns the canonical constant node.
func internConst(w int, v uint64) *Const {
	dig := digestConst(w, v)
	sh := arena.shardFor(dig)
	key := constKey{w: w, v: v}
	sh.mu.RLock()
	n, ok := sh.consts[key]
	sh.mu.RUnlock()
	if ok {
		arena.hits.Add(1)
		return n
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if n, ok := sh.consts[key]; ok {
		arena.hits.Add(1)
		return n
	}
	n = &Const{W: w, V: v}
	if !arena.room() {
		arena.fallbacks.Add(1)
		n.hc = hc{dig: dig, tn: 1, fl: flKnown}
		return n
	}
	sh.consts[key] = n
	arena.admit(&n.hc, dig, 1, flKnown)
	return n
}

// internVar returns the canonical variable node.
func internVar(name string, w int) *Var {
	dig := digestVar(name, w)
	sh := arena.shardFor(dig)
	key := varKey{name: name, w: w}
	sh.mu.RLock()
	n, ok := sh.vars[key]
	sh.mu.RUnlock()
	if ok {
		arena.hits.Add(1)
		return n
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if n, ok := sh.vars[key]; ok {
		arena.hits.Add(1)
		return n
	}
	n = &Var{Name: name, W: w}
	if !arena.room() {
		arena.fallbacks.Add(1)
		n.hc = hc{dig: dig, tn: 1, fl: varFlags(name)}
		return n
	}
	sh.vars[key] = n
	arena.admit(&n.hc, dig, 1, varFlags(name))
	return n
}

// internBin returns the canonical binary node over interned children,
// or a fresh un-interned node (digest still precomputed) when a child
// is not canonical or the arena is full.
func internBin(op BinOp, a, b Expr, w int) *Bin {
	ma, mb := meta(a), meta(b)
	if ma == nil || mb == nil || ma.id == 0 || mb.id == 0 {
		n := &Bin{Op: op, A: a, B: b, w: w}
		if ma != nil && mb != nil && ma.dig != 0 && mb.dig != 0 {
			n.hc = hc{
				dig: digestBin(op, w, ma.dig, mb.dig),
				tn:  satAdd(1, satAdd(ma.tn, mb.tn)),
				fl:  joinFlags(binFlags(op), ma.fl, mb.fl, flKnown),
			}
		}
		return n
	}
	dig := digestBin(op, w, ma.dig, mb.dig)
	sh := arena.shardFor(dig)
	key := binKey{op: op, w: w, a: a, b: b}
	sh.mu.RLock()
	n, ok := sh.bins[key]
	sh.mu.RUnlock()
	if ok {
		arena.hits.Add(1)
		return n
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if n, ok := sh.bins[key]; ok {
		arena.hits.Add(1)
		return n
	}
	n = &Bin{Op: op, A: a, B: b, w: w}
	tn := satAdd(1, satAdd(ma.tn, mb.tn))
	fl := joinFlags(binFlags(op), ma.fl, mb.fl, flKnown)
	if !arena.room() {
		arena.fallbacks.Add(1)
		n.hc = hc{dig: dig, tn: tn, fl: fl}
		return n
	}
	sh.bins[key] = n
	arena.admit(&n.hc, dig, tn, fl)
	return n
}

// internUn returns the canonical unary node (see internBin).
func internUn(op UnOp, a Expr, arg, arg2, w int) *Un {
	ma := meta(a)
	if ma == nil || ma.id == 0 {
		n := &Un{Op: op, A: a, Arg: arg, Arg2: arg2, w: w}
		if ma != nil && ma.dig != 0 {
			n.hc = hc{
				dig: digestUn(op, w, arg, arg2, ma.dig),
				tn:  satAdd(1, ma.tn),
				fl:  joinFlags(unFlags(op), ma.fl, flKnown, flKnown),
			}
		}
		return n
	}
	dig := digestUn(op, w, arg, arg2, ma.dig)
	sh := arena.shardFor(dig)
	key := unKey{op: op, w: w, arg: arg, arg2: arg2, a: a}
	sh.mu.RLock()
	n, ok := sh.uns[key]
	sh.mu.RUnlock()
	if ok {
		arena.hits.Add(1)
		return n
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if n, ok := sh.uns[key]; ok {
		arena.hits.Add(1)
		return n
	}
	n = &Un{Op: op, A: a, Arg: arg, Arg2: arg2, w: w}
	tn := satAdd(1, ma.tn)
	fl := joinFlags(unFlags(op), ma.fl, flKnown, flKnown)
	if !arena.room() {
		arena.fallbacks.Add(1)
		n.hc = hc{dig: dig, tn: tn, fl: fl}
		return n
	}
	sh.uns[key] = n
	arena.admit(&n.hc, dig, tn, fl)
	return n
}

// internITE returns the canonical if-then-else node (see internBin).
func internITE(cond, then, els Expr) *ITE {
	mc, mt, me := meta(cond), meta(then), meta(els)
	if mc == nil || mt == nil || me == nil || mc.id == 0 || mt.id == 0 || me.id == 0 {
		n := &ITE{Cond: cond, Then: then, Else: els}
		if mc != nil && mt != nil && me != nil &&
			mc.dig != 0 && mt.dig != 0 && me.dig != 0 {
			n.hc = hc{
				dig: digestITE(mc.dig, mt.dig, me.dig),
				tn:  satAdd(1, satAdd(mc.tn, satAdd(mt.tn, me.tn))),
				fl:  joinFlags(flKnown|flITE, mc.fl, mt.fl, me.fl),
			}
		}
		return n
	}
	dig := digestITE(mc.dig, mt.dig, me.dig)
	sh := arena.shardFor(dig)
	key := iteKey{c: cond, t: then, e: els}
	sh.mu.RLock()
	n, ok := sh.ites[key]
	sh.mu.RUnlock()
	if ok {
		arena.hits.Add(1)
		return n
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if n, ok := sh.ites[key]; ok {
		arena.hits.Add(1)
		return n
	}
	n = &ITE{Cond: cond, Then: then, Else: els}
	tn := satAdd(1, satAdd(mc.tn, satAdd(mt.tn, me.tn)))
	fl := joinFlags(flKnown|flITE, mc.fl, mt.fl, me.fl)
	if !arena.room() {
		arena.fallbacks.Add(1)
		n.hc = hc{dig: dig, tn: tn, fl: fl}
		return n
	}
	sh.ites[key] = n
	arena.admit(&n.hc, dig, tn, fl)
	return n
}

// Intern returns the canonical arena equivalent of e, preserving its
// structure exactly (no simplification): Eval, String, SMTLib and
// StableKey of the result are identical to e's. Already-interned nodes
// return themselves in O(1); raw trees (struct literals from tests and
// fuzzers) are canonicalized bottom-up with memoized sharing, linear in
// distinct nodes. When the arena is full the result may remain
// un-interned.
func Intern(e Expr) Expr {
	if e == nil {
		return nil
	}
	if m := meta(e); m != nil && m.id != 0 {
		return e
	}
	return internWalk(e, make(map[Expr]Expr))
}

func internWalk(e Expr, memo map[Expr]Expr) Expr {
	if m := meta(e); m != nil && m.id != 0 {
		return e
	}
	if c, ok := memo[e]; ok {
		return c
	}
	var c Expr
	switch t := e.(type) {
	case *Const:
		c = internConst(t.W, t.V)
	case *Var:
		c = internVar(t.Name, t.W)
	case *Bin:
		c = internBin(t.Op, internWalk(t.A, memo), internWalk(t.B, memo), t.w)
	case *Un:
		c = internUn(t.Op, internWalk(t.A, memo), t.Arg, t.Arg2, t.w)
	case *ITE:
		c = internITE(internWalk(t.Cond, memo), internWalk(t.Then, memo),
			internWalk(t.Else, memo))
	default:
		c = e // foreign implementation; leave as-is
	}
	memo[e] = c
	return c
}
