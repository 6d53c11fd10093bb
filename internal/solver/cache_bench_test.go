package solver

import (
	"testing"

	"repro/internal/sym"
)

// benchSystem builds a chain of byte-equality constraints resembling the
// negation systems the engine submits (prefix of branch conditions plus
// one negated condition).
func benchSystem(n int) []sym.Expr {
	sys := make([]sym.Expr, 0, n)
	for i := 0; i < n; i++ {
		v := sym.NewVar("env!argv1!"+string(rune('a'+i%26)), 8)
		sys = append(sys, sym.NewBin(sym.OpEq, v, sym.NewConst(uint64(i%251), 8)))
	}
	return sys
}

func BenchmarkSolveUncached(b *testing.B) {
	sys := benchSystem(24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := Solve(sys, Options{})
		if err != nil || r.Status != StatusSat {
			b.Fatalf("status %v err %v", r.Status, err)
		}
	}
}

func BenchmarkCacheSolveHit(b *testing.B) {
	c := NewCache(16)
	sys := benchSystem(24)
	if _, err := c.Solve(sys, Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := c.Solve(sys, Options{})
		if err != nil || r.Status != StatusSat {
			b.Fatalf("status %v err %v", r.Status, err)
		}
	}
	b.StopTimer()
	if st := c.Stats(); st.Hits == 0 {
		b.Fatal("benchmark never hit the cache")
	}
}

// BenchmarkCanonicalKey isolates the hashing cost the cache adds to every
// lookup.
func BenchmarkCanonicalKey(b *testing.B) {
	sys := benchSystem(24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sym.CanonicalKey(sys) == "" {
			b.Fatal("empty key")
		}
	}
}

// BenchmarkCacheMissSequence solves on one cache query after query, every
// one a miss: a one-entry cache alternates a 12-bit factoring system
// and a 24-byte equality chain, so each evicts the other. Its allocs/op
// show what a miss allocates once the cache's SAT solver has grown.
func BenchmarkCacheMissSequence(b *testing.B) {
	c := NewCache(1)
	systems := [][]sym.Expr{stressFactorSystem(12, 43*47), benchSystem(24)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := c.Solve(systems[i%2], Options{})
		if err != nil || r.Status != StatusSat {
			b.Fatalf("status %v err %v", r.Status, err)
		}
	}
	b.StopTimer()
	if st := c.Stats(); st.Hits != 0 {
		b.Fatalf("%d hits, want every query to miss", st.Hits)
	}
}
