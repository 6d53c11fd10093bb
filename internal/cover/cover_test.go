package cover

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/trace"
)

func entry(pid, tid int, pc uint64) trace.Entry {
	return trace.Entry{PID: pid, TID: tid, PC: pc}
}

func TestFromTraceEdgesPerFlow(t *testing.T) {
	// Two interleaved flows: edges must pair PCs within a flow, never
	// across the interleaving.
	tr := &trace.Trace{Entries: []trace.Entry{
		entry(1, 0, 0x100),
		entry(1, 1, 0x200),
		entry(1, 0, 0x104),
		entry(1, 1, 0x204),
		entry(2, 0, 0x100), // same TID as flow one but another process
		entry(1, 0, 0x108),
		entry(2, 0, 0x104),
	}}
	s := FromTrace(tr, nil)
	want := []Edge{
		{0x100, 0x104}, {0x104, 0x108}, // pid 1 tid 0
		{0x200, 0x204}, // pid 1 tid 1
		{0x100, 0x104}, // pid 2 tid 0 (same pair, one set entry)
	}
	for _, e := range want {
		if !s.HasEdge(e) {
			t.Errorf("missing edge %#x->%#x", e.From, e.To)
		}
	}
	if s.HasEdge(Edge{0x104, 0x200}) || s.HasEdge(Edge{0x200, 0x104}) {
		t.Error("cross-flow edge fabricated by interleaving")
	}
	edges, blocks := s.Len()
	if edges != 3 {
		t.Errorf("edges = %d, want 3", edges)
	}
	if blocks != 5 { // distinct PCs with no leader filter
		t.Errorf("blocks = %d, want 5", blocks)
	}
}

func TestFromTraceLeaderFilter(t *testing.T) {
	tr := &trace.Trace{Entries: []trace.Entry{
		entry(1, 0, 0x100), entry(1, 0, 0x104), entry(1, 0, 0x108),
	}}
	s := FromTrace(tr, func(pc uint64) bool { return pc == 0x104 })
	if _, blocks := s.Len(); blocks != 1 {
		t.Errorf("blocks = %d, want 1 (leader filter)", blocks)
	}
}

// TestSetAddEdge drives the open-addressed edge table past several
// doublings, with the zero edge (which has no slot) among the keys, and
// checks it against a map.
func TestSetAddEdge(t *testing.T) {
	s := NewSet()
	ref := make(map[Edge]bool)
	for i := 0; i < 5000; i++ {
		e := Edge{From: uint64(i % 700), To: uint64(i*7919) % 1013}
		if got, want := s.AddEdge(e), !ref[e]; got != want {
			t.Fatalf("AddEdge(%v) = %v, want %v", e, got, want)
		}
		ref[e] = true
	}
	if edges, _ := s.Len(); edges != len(ref) {
		t.Fatalf("Len edges = %d, want %d", edges, len(ref))
	}
	for e := range ref {
		if !s.HasEdge(e) {
			t.Fatalf("HasEdge(%v) = false after AddEdge", e)
		}
	}
	if s.HasEdge(Edge{From: 5000, To: 1}) {
		t.Error("HasEdge reports an edge never added")
	}
	if e := NewSet().Merge(s); e != len(ref) {
		t.Errorf("Merge found %d new edges, want %d", e, len(ref))
	}
}

func TestMergeCountsNewOnly(t *testing.T) {
	cum := NewSet()
	a := NewSet()
	a.AddEdge(Edge{1, 2})
	a.AddEdge(Edge{2, 3})
	a.AddBlock(1)
	if e := cum.Merge(a); e != 2 {
		t.Fatalf("first merge = %d new edges, want 2", e)
	}
	// Re-merging the same set must be a no-op.
	if e := cum.Merge(a); e != 0 {
		t.Fatalf("idempotent merge = %d new edges, want 0", e)
	}
	b := NewSet()
	b.AddEdge(Edge{2, 3}) // old
	b.AddEdge(Edge{3, 4}) // new
	b.AddBlock(1)         // old
	b.AddBlock(4)         // new
	if e := cum.Merge(b); e != 1 {
		t.Fatalf("overlap merge = %d new edges, want 1", e)
	}
	if e, bl := cum.Len(); e != 3 || bl != 2 {
		t.Fatalf("totals = (%d, %d), want (3, 2)", e, bl)
	}
	if !cum.HasEdge(Edge{3, 4}) || cum.HasEdge(Edge{4, 5}) {
		t.Error("HasEdge disagrees with merged content")
	}
	if !cum.HasBlock(4) || cum.HasBlock(9) {
		t.Error("HasBlock disagrees with merged content")
	}
	if e := cum.Merge(nil); e != 0 {
		t.Errorf("nil merge = %d new edges, want 0", e)
	}
}

// FuzzCoverSetMerge checks Set.Merge against a map reference model: the
// new-edge count, the merged edges and blocks, and membership. A small
// PC span makes the zero edge and repeated edges common; n up to 4096
// edges per side drives both tables through several doublings, the
// receiver's during the merge itself.
func FuzzCoverSetMerge(f *testing.F) {
	f.Add(int64(1), uint16(10), uint16(10), uint8(4))
	f.Add(int64(2), uint16(0), uint16(300), uint8(40))
	f.Add(int64(3), uint16(200), uint16(2000), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, na, nb uint16, span uint8) {
		r := rand.New(rand.NewSource(seed))
		pc := func() uint64 { return uint64(r.Intn(int(span) + 1)) }
		build := func(n uint16) (*Set, map[Edge]bool, map[uint64]bool) {
			s, edges, blocks := NewSet(), map[Edge]bool{}, map[uint64]bool{}
			for i := 0; i < int(n%4097); i++ {
				e := Edge{From: pc(), To: pc()}
				s.AddEdge(e)
				edges[e] = true
				if e.From%3 == 0 {
					s.AddBlock(e.From)
					blocks[e.From] = true
				}
			}
			return s, edges, blocks
		}
		s, refEdges, refBlocks := build(na)
		o, oEdges, oBlocks := build(nb)

		wantNew := 0
		for e := range oEdges {
			if !refEdges[e] {
				wantNew++
				refEdges[e] = true
			}
		}
		for b := range oBlocks {
			refBlocks[b] = true
		}
		if got := s.Merge(o); got != wantNew {
			t.Fatalf("Merge = %d new edges, want %d", got, wantNew)
		}
		if got := s.Merge(o); got != 0 {
			t.Fatalf("second Merge = %d new edges, want 0", got)
		}

		wantEdges := make([]Edge, 0, len(refEdges))
		for e := range refEdges {
			wantEdges = append(wantEdges, e)
		}
		sort.Slice(wantEdges, func(i, j int) bool {
			if wantEdges[i].From != wantEdges[j].From {
				return wantEdges[i].From < wantEdges[j].From
			}
			return wantEdges[i].To < wantEdges[j].To
		})
		wantBlocks := make([]uint64, 0, len(refBlocks))
		for b := range refBlocks {
			wantBlocks = append(wantBlocks, b)
		}
		sort.Slice(wantBlocks, func(i, j int) bool { return wantBlocks[i] < wantBlocks[j] })
		if got := s.Edges(); !reflect.DeepEqual(got, wantEdges) {
			t.Fatalf("merged edges = %v, want %v", got, wantEdges)
		}
		if got := s.Blocks(); !reflect.DeepEqual(got, wantBlocks) {
			t.Fatalf("merged blocks = %v, want %v", got, wantBlocks)
		}
		if e, b := s.Len(); e != len(refEdges) || b != len(refBlocks) {
			t.Fatalf("Len = (%d, %d), want (%d, %d)", e, b, len(refEdges), len(refBlocks))
		}
		if s.HasEdge(Edge{}) != refEdges[Edge{}] {
			t.Fatalf("HasEdge(zero edge) = %v, want %v", !refEdges[Edge{}], refEdges[Edge{}])
		}
		// Every PC is at most span, so these are absent.
		out := uint64(span) + 1
		for x := uint64(0); x <= out; x++ {
			for _, e := range []Edge{{x, out}, {out, x}} {
				if s.HasEdge(e) != refEdges[e] {
					t.Fatalf("HasEdge(%v) = %v, want %v", e, !refEdges[e], refEdges[e])
				}
			}
			if s.HasBlock(x) != refBlocks[x] {
				t.Fatalf("HasBlock(%d) = %v, want %v", x, !refBlocks[x], refBlocks[x])
			}
		}
		for e := range refEdges {
			if !s.HasEdge(e) {
				t.Fatalf("HasEdge(%v) = false after Merge", e)
			}
		}
	})
}
