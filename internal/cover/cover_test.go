package cover

import (
	"sync"
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
	if e, _ := NewTracker().Merge(s); e != len(ref) {
		t.Errorf("Merge found %d new edges, want %d", e, len(ref))
	}
}

func TestMergeCountsNewOnly(t *testing.T) {
	tk := NewTracker()
	a := NewSet()
	a.AddEdge(Edge{1, 2})
	a.AddEdge(Edge{2, 3})
	a.AddBlock(1)
	if e, b := tk.Merge(a); e != 2 || b != 1 {
		t.Fatalf("first merge = (%d, %d), want (2, 1)", e, b)
	}
	// Re-merging the same set must be a no-op.
	if e, b := tk.Merge(a); e != 0 || b != 0 {
		t.Fatalf("idempotent merge = (%d, %d), want (0, 0)", e, b)
	}
	b := NewSet()
	b.AddEdge(Edge{2, 3}) // old
	b.AddEdge(Edge{3, 4}) // new
	b.AddBlock(1)         // old
	b.AddBlock(4)         // new
	if e, nb := tk.Merge(b); e != 1 || nb != 1 {
		t.Fatalf("overlap merge = (%d, %d), want (1, 1)", e, nb)
	}
	if tk.Edges() != 3 || tk.Blocks() != 2 {
		t.Fatalf("totals = (%d, %d), want (3, 2)", tk.Edges(), tk.Blocks())
	}
	if !tk.HasEdge(Edge{3, 4}) || tk.HasEdge(Edge{4, 5}) {
		t.Error("HasEdge disagrees with merged content")
	}
	if !tk.HasBlock(4) || tk.HasBlock(9) {
		t.Error("HasBlock disagrees with merged content")
	}
}

// TestTrackerConcurrent hammers one tracker from many goroutines (race
// gate target): total new-edge counts across all merges must equal the
// distinct edge population no matter how merges interleave.
func TestTrackerConcurrent(t *testing.T) {
	tk := NewTracker()
	const workers = 8
	var wg sync.WaitGroup
	newTotal := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := NewSet()
				// Overlapping ranges: every worker re-offers most edges.
				for j := 0; j < 16; j++ {
					pc := uint64((i%50)*16 + j)
					s.AddEdge(Edge{pc, pc + 1})
					s.AddBlock(pc)
				}
				e, _ := tk.Merge(s)
				newTotal[w] += e
				tk.HasEdge(Edge{uint64(i), uint64(i + 1)})
			}
		}(w)
	}
	wg.Wait()
	sum := 0
	for _, n := range newTotal {
		sum += n
	}
	if sum != tk.Edges() {
		t.Fatalf("sum of per-merge novelty %d != distinct edges %d", sum, tk.Edges())
	}
}

func TestGlobalSingleton(t *testing.T) {
	if Global() != Global() {
		t.Fatal("Global must return one process-wide tracker")
	}
}
