// Package cover tracks edge and block coverage over lifted program
// counters. It is the feedback signal for the engine's coverage-guided
// search strategy (core.SearchCoverage) and for the hybrid mutation
// fuzzer: every concrete trace — concolic round or fuzz execution — is
// folded into a per-run Set, merged into a cumulative Tracker, and the
// number of edges seen for the first time is the run's novelty.
//
// An edge is an ordered pair of consecutive program counters executed by
// the same thread of the same process; interleaved schedules therefore
// never fabricate edges between unrelated flows. A block is a static
// basic-block leader (the caller supplies the leader set, derived from
// the decoded image); with no leader set every executed PC counts, which
// degrades gracefully for images that fail to decode.
//
// The Tracker is sharded 64 ways like the sym intern arena, so many
// engines (grid cells, service jobs, fuzz executions) can merge and
// query concurrently without a global lock. Merge results are
// order-independent in value — a Set's novelty depends only on which
// edges the tracker already holds, never on map iteration order — which
// is what lets the engine keep its cross-worker-count determinism while
// feeding the tracker from parallel rounds' merges.
package cover

import (
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// Edge is one observed control-flow transfer: From executed, then To,
// on the same (process, thread) flow.
type Edge struct {
	From, To uint64
}

// Set is one run's coverage view. It is built single-threaded (one run,
// one builder) and read-only afterwards, so it carries no lock.
//
// The guest VM feeds it one executed edge per instruction, so the edge
// set is a flat open-addressed table (linear probing, at most half
// full) rather than a map: a lookup of a seen edge, the common case in
// a loop, is one hash and usually one probe.
type Set struct {
	slots    []Edge // len is a power of two; the zero Edge marks a free slot
	nEdges   int
	zeroEdge bool // the set holds Edge{}, which cannot live in slots
	blocks   map[uint64]struct{}
}

// minSlots is a fresh set's table size: a fuzz mutant's run covers a few
// hundred edges, and the table doubles from here.
const minSlots = 256

// NewSet returns an empty per-run coverage set.
func NewSet() *Set {
	return &Set{
		slots:  make([]Edge, minSlots),
		blocks: make(map[uint64]struct{}),
	}
}

func edgeHash(e Edge) uint64 { return mix(e.From*0x9e3779b97f4a7c15 ^ e.To) }

// slot returns the index of e's slot in the table, or of the free slot
// where e belongs. e must not be the zero Edge.
func (s *Set) slot(e Edge) uint64 {
	mask := uint64(len(s.slots) - 1)
	i := edgeHash(e) & mask
	for s.slots[i] != e && s.slots[i] != (Edge{}) {
		i = (i + 1) & mask
	}
	return i
}

// AddEdge records one executed edge and reports whether the set did not
// hold it yet.
func (s *Set) AddEdge(e Edge) bool {
	if e == (Edge{}) {
		added := !s.zeroEdge
		s.zeroEdge = true
		return added
	}
	i := s.slot(e)
	if s.slots[i] == e {
		return false
	}
	s.slots[i] = e
	s.nEdges++
	if 2*s.nEdges > len(s.slots) {
		// Double the table and reinsert every edge.
		old := s.slots
		s.slots = make([]Edge, 2*len(old))
		for _, o := range old {
			if o != (Edge{}) {
				s.slots[s.slot(o)] = o
			}
		}
	}
	return true
}

// eachEdge calls f for every edge in the set.
func (s *Set) eachEdge(f func(Edge)) {
	if s.zeroEdge {
		f(Edge{})
	}
	for _, e := range s.slots {
		if e != (Edge{}) {
			f(e)
		}
	}
}

// AddBlock records one executed block leader.
func (s *Set) AddBlock(pc uint64) { s.blocks[pc] = struct{}{} }

// Len reports the set's distinct edge and block counts.
func (s *Set) Len() (edges, blocks int) {
	edges = s.nEdges
	if s.zeroEdge {
		edges++
	}
	return edges, len(s.blocks)
}

// HasEdge reports whether the set saw the edge.
func (s *Set) HasEdge(e Edge) bool {
	if e == (Edge{}) {
		return s.zeroEdge
	}
	return s.slots[s.slot(e)] == e
}

// FromTrace folds one recorded trace into a coverage set. Edges pair
// consecutive PCs per (PID, TID) flow; blocks are the executed PCs that
// appear in leaders (every PC when leaders is nil).
func FromTrace(tr *trace.Trace, leaders map[uint64]bool) *Set {
	s := NewSet()
	if tr == nil {
		return s
	}
	prev := make(map[uint64]uint64) // flow key -> previous PC
	seen := make(map[uint64]bool)   // flow key -> has a previous PC
	for i := range tr.Entries {
		e := &tr.Entries[i]
		flow := uint64(e.PID)<<32 | uint64(uint32(e.TID))
		if seen[flow] {
			s.AddEdge(Edge{From: prev[flow], To: e.PC})
		}
		prev[flow] = e.PC
		seen[flow] = true
		if leaders == nil || leaders[e.PC] {
			s.AddBlock(e.PC)
		}
	}
	return s
}

// shardCount mirrors the sym intern arena's sharding: enough shards
// that concurrent engines rarely collide, few enough that the fixed
// footprint stays trivial.
const shardCount = 64

type shard struct {
	mu     sync.RWMutex
	edges  map[Edge]struct{}
	blocks map[uint64]struct{}
}

// Tracker is a cumulative, concurrency-safe coverage store. The engine
// keeps one per exploration (the deterministic scoring view) and the
// process keeps one global instance (the /metrics view).
type Tracker struct {
	shards [shardCount]shard
	edges  atomic.Int64
	blocks atomic.Int64
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	t := &Tracker{}
	for i := range t.shards {
		t.shards[i].edges = make(map[Edge]struct{})
		t.shards[i].blocks = make(map[uint64]struct{})
	}
	return t
}

// mix is the splitmix64 finalizer, the same diffusion the intern arena
// uses to spread structurally close keys across shards.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func edgeShard(e Edge) uint64 { return edgeHash(e) & (shardCount - 1) }

func blockShard(pc uint64) uint64 { return mix(pc) & (shardCount - 1) }

// Merge folds a run's set into the tracker and reports how many of its
// edges and blocks were new. The counts depend only on set content and
// prior tracker state, never on iteration order.
func (t *Tracker) Merge(s *Set) (newEdges, newBlocks int) {
	if s == nil {
		return 0, 0
	}
	s.eachEdge(func(e Edge) {
		sh := &t.shards[edgeShard(e)]
		sh.mu.Lock()
		if _, ok := sh.edges[e]; !ok {
			sh.edges[e] = struct{}{}
			newEdges++
		}
		sh.mu.Unlock()
	})
	for pc := range s.blocks {
		sh := &t.shards[blockShard(pc)]
		sh.mu.Lock()
		if _, ok := sh.blocks[pc]; !ok {
			sh.blocks[pc] = struct{}{}
			newBlocks++
		}
		sh.mu.Unlock()
	}
	t.edges.Add(int64(newEdges))
	t.blocks.Add(int64(newBlocks))
	return newEdges, newBlocks
}

// HasEdge reports whether the tracker has seen the edge.
func (t *Tracker) HasEdge(e Edge) bool {
	sh := &t.shards[edgeShard(e)]
	sh.mu.RLock()
	_, ok := sh.edges[e]
	sh.mu.RUnlock()
	return ok
}

// HasBlock reports whether the tracker has seen the block.
func (t *Tracker) HasBlock(pc uint64) bool {
	sh := &t.shards[blockShard(pc)]
	sh.mu.RLock()
	_, ok := sh.blocks[pc]
	sh.mu.RUnlock()
	return ok
}

// Edges returns the cumulative distinct edge count.
func (t *Tracker) Edges() int { return int(t.edges.Load()) }

// Blocks returns the cumulative distinct block count.
func (t *Tracker) Blocks() int { return int(t.blocks.Load()) }

var (
	globalOnce sync.Once
	global     *Tracker
)

// Global is the process-wide cumulative tracker. Engines feed it from
// every merged run so the serving layer can expose coverage across all
// jobs; it never influences scheduling (each engine scores against its
// own tracker, keeping explorations independent and deterministic).
func Global() *Tracker {
	globalOnce.Do(func() { global = NewTracker() })
	return global
}
