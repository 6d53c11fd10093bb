package mem

import (
	"runtime"
	"sync"
	"testing"
)

// TestCOWConcurrentCloneWrite hammers a quiescent parent Memory with
// GOMAXPROCS (at least 4) goroutines, each cloning it and writing
// through its own clone. The parent must stay byte-identical, and every
// clone must see its own writes over the parent's bytes — the contract
// the engine relies on when parallel rounds start their machines from
// one program's boot memory. Run under `make race`.
func TestCOWConcurrentCloneWrite(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const pages = 16
	const rounds = 50

	parent := New()
	for p := 0; p < pages; p++ {
		for b := 0; b < 8; b++ {
			parent.StoreByte(uint64(p*PageSize+b), byte(p+b))
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				c := parent.Clone()
				// Touch every page: each write COW-faults a shared page
				// while sibling goroutines fault their own copies of it.
				for p := 0; p < pages; p++ {
					addr := uint64(p*PageSize + w%8)
					c.StoreByte(addr, byte(0xA0+w))
					if got := c.LoadByte(addr); got != byte(0xA0+w) {
						errs <- "clone lost its own write"
						return
					}
				}
				// Unwritten offsets must still show the parent's bytes.
				for p := 0; p < pages; p++ {
					off := (w + 1) % 8
					want := byte(p + off)
					if w%8 == off {
						continue
					}
					if got := c.LoadByte(uint64(p*PageSize + off)); got != want {
						errs <- "clone saw a sibling's write"
						return
					}
				}
				c.Reset()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	for p := 0; p < pages; p++ {
		for b := 0; b < 8; b++ {
			if got := parent.LoadByte(uint64(p*PageSize + b)); got != byte(p+b) {
				t.Fatalf("parent page %d byte %d corrupted: %#x", p, b, got)
			}
		}
	}
}
