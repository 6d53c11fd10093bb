// Package cover tracks edge and block coverage over lifted program
// counters. It is the feedback signal for the engine's coverage-guided
// search strategy (core.SearchCoverage) and for the hybrid mutation
// fuzzer: every concrete trace — concolic round or fuzz execution — is
// folded into a per-run Set, merged into the exploration's cumulative
// Set, and the number of edges seen for the first time is the run's
// novelty.
//
// An edge is an ordered pair of consecutive program counters executed by
// the same thread of the same process; interleaved schedules therefore
// never fabricate edges between unrelated flows. A block is a static
// basic-block leader (the caller supplies the leader set, derived from
// the decoded image); with no leader set every executed PC counts, which
// degrades gracefully for images that fail to decode.
//
// A Set carries no lock. Coverage belongs to one exploration, and the
// engine keeps the invariant that makes a lock unnecessary: only the
// engine goroutine merges into its cumulative set, and only between
// batches of rounds; the rounds of a batch read the set concurrently
// while no merge runs. Merge counts depend only on the merged set's
// content and the receiver's prior content, never on iteration order,
// so merging rounds in dispatch order gives the same novelty at every
// worker count.
package cover

import (
	"sort"

	"repro/internal/trace"
)

// Edge is one observed control-flow transfer: From executed, then To,
// on the same (process, thread) flow.
type Edge struct {
	From, To uint64
}

// Set is a coverage view: one run's, built by the guest VM or FromTrace,
// or an exploration's cumulative one, grown by Merge. It carries no lock
// (see the package doc for who may write it when).
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

// mix is the splitmix64 finalizer: it spreads structurally close edges
// (neighbouring PCs) across the table.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

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

// Edges returns the set's edges sorted by (From, To).
func (s *Set) Edges() []Edge {
	out := make([]Edge, 0, s.nEdges+1)
	s.eachEdge(func(e Edge) { out = append(out, e) })
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Blocks returns the set's block leaders in ascending order.
func (s *Set) Blocks() []uint64 {
	out := make([]uint64, 0, len(s.blocks))
	for pc := range s.blocks {
		out = append(out, pc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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

// HasBlock reports whether the set saw the block leader.
func (s *Set) HasBlock(pc uint64) bool {
	_, ok := s.blocks[pc]
	return ok
}

// Merge folds o into s and reports how many of o's edges s did not hold
// yet. A nil o merges nothing.
func (s *Set) Merge(o *Set) (newEdges int) {
	if o == nil {
		return 0
	}
	o.eachEdge(func(e Edge) {
		if s.AddEdge(e) {
			newEdges++
		}
	})
	for pc := range o.blocks {
		s.AddBlock(pc)
	}
	return newEdges
}

// FromTrace folds one recorded trace into a coverage set. Edges pair
// consecutive PCs per (PID, TID) flow; blocks are the executed PCs that
// leader accepts (every PC when leader is nil).
func FromTrace(tr *trace.Trace, leader func(pc uint64) bool) *Set {
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
		if leader == nil || leader(e.PC) {
			s.AddBlock(e.PC)
		}
	}
	return s
}
