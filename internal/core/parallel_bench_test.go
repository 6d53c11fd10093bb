package core_test

import (
	"fmt"
	"testing"

	"repro/internal/bombs"
	"repro/internal/core"
	"repro/internal/tools"
)

// BenchmarkExploreParallel measures end-to-end exploration of a
// multi-round bomb at several worker counts. jump under the reference
// DFS profile runs to its 12-round cap with a sustained frontier. DFS
// runs one round per batch, so every worker count explores the same
// schedule and the benchmark measures what the worker pool costs.
func BenchmarkExploreParallel(b *testing.B) {
	bomb, ok := bombs.ByName("jump")
	if !ok {
		b.Fatal("jump missing")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := tools.FastBudgets(tools.Reference())
			p.Caps.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				en := core.New(bomb.Image(), bomb.BombAddr(), p.Caps)
				out := en.Explore(bomb.Benign)
				if out.Rounds == 0 {
					b.Fatal("engine did no work")
				}
			}
		})
	}
}

// BenchmarkSolverCacheHitRate reports the solver query cache's hit rate
// on bombs whose negation systems repeat across rounds (array scans and
// symbolic jumps re-derive the same prefix constraints).
func BenchmarkSolverCacheHitRate(b *testing.B) {
	for _, name := range []string{"array1", "jump"} {
		b.Run(name, func(b *testing.B) {
			bomb, ok := bombs.ByName(name)
			if !ok {
				b.Fatal("bomb missing")
			}
			p := tools.FastBudgets(tools.Angr())
			p.Caps.Workers = 4
			var hits, lookups uint64
			for i := 0; i < b.N; i++ {
				en := core.New(bomb.Image(), bomb.BombAddr(), p.Caps)
				out := en.Explore(bomb.Benign)
				hits += out.Stats.CacheHits
				lookups += out.Stats.CacheHits + out.Stats.CacheMisses
			}
			if lookups == 0 {
				b.Fatal("cache saw no lookups")
			}
			b.ReportMetric(float64(hits)/float64(lookups), "hit-rate")
		})
	}
}
