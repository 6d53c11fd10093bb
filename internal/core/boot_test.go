package core

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/bombs"
	"repro/internal/symexec"
	"repro/internal/vm"
)

// TestBootMemorySharedUnchanged runs engines and symbolic passes on
// bombs that write their data pages, all at once and all on the image's
// one program, and then checks that the program's boot memory still
// holds every section byte for byte. The engines must have copied boot
// pages (COW faults), or the check would prove nothing.
func TestBootMemorySharedUnchanged(t *testing.T) {
	names := []string{"kvthread", "fork"}
	faults := make([]uint64, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		b, ok := bombs.ByName(name)
		if !ok {
			t.Fatalf("no bomb %s", name)
		}
		for j := 0; j < 2; j++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				out := New(b.Image(), b.BombAddr(), referenceCaps()).Explore(b.Benign)
				if j == 0 {
					faults[i] = out.Stats.PagesCOWFaulted
				}
			}()
			go func() {
				defer wg.Done()
				res, err := b.Run(b.Trigger, bombs.WithRecording())
				if err != nil {
					t.Error(err)
					return
				}
				cfg := b.Trigger.Config()
				symexec.Run(b.Image(), res.Trace, res.Argv, cfg.Argv, referenceCaps().Sym)
			}()
		}
	}
	wg.Wait()
	for i, name := range names {
		b, _ := bombs.ByName(name)
		if faults[i] == 0 {
			t.Errorf("%s: the engine copied no boot page", name)
		}
		prog, err := vm.Load(b.Image())
		if err != nil {
			t.Fatal(err)
		}
		boot := prog.Memory()
		for _, sec := range b.Image().Sections {
			got := make([]byte, len(sec.Data))
			boot.Read(sec.Addr, got)
			if !bytes.Equal(got, sec.Data) {
				t.Errorf("%s: boot memory's %s section changed by the runs", name, sec.Name)
			}
		}
	}
}
