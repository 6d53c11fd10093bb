package core

import (
	"testing"

	"repro/internal/bin"
	"repro/internal/bombs"
)

var engineSink *Engine

// BenchmarkEngineNew measures building an engine for the jump bomb.
// "first" hands New an image it has not seen (a new bin.Image over the
// same sections), so New pays for decoding it; "loaded" builds every
// engine on one image, as a grid or a service builds many engines per
// bomb.
func BenchmarkEngineNew(b *testing.B) {
	bm, ok := bombs.ByName("jump")
	if !ok {
		b.Fatal("no bomb jump")
	}
	img, addr := bm.Image(), bm.BombAddr()
	caps := referenceCaps()
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engineSink = New(&bin.Image{Entry: img.Entry, Sections: img.Sections, Symbols: img.Symbols}, addr, caps)
		}
	})
	b.Run("loaded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engineSink = New(img, addr, caps)
		}
	})
}
