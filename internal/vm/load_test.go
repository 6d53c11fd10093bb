package vm

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/bin"
	"repro/internal/isa"
	"repro/internal/mem"
)

func assembleT(t *testing.T, text string) *bin.Image {
	t.Helper()
	img, err := asm.Assemble(asm.Source{Name: "t.s", Text: text})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img
}

// TestLoadShared loads one image from many goroutines at once (run it
// under -race): every call must return the same *Program. An image with
// the same contents is another image and gets its own program.
func TestLoadShared(t *testing.T) {
	const src = "_start:\n mov r1, 1\n halt\n"
	img := assembleT(t, src)
	progs := make([]*Program, 8)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := Load(img)
			if err != nil {
				t.Error(err)
			}
			progs[i] = p
		}()
	}
	wg.Wait()
	for i, p := range progs {
		if p == nil || p != progs[0] {
			t.Fatalf("Load %d returned %p, Load 0 returned %p", i, p, progs[0])
		}
	}
	other, err := Load(assembleT(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if other == progs[0] {
		t.Error("a second image shares the first image's program")
	}
}

// TestLoadErrorRemembered checks that an image that does not decode
// reports the same error on every Load.
func TestLoadErrorRemembered(t *testing.T) {
	img := &bin.Image{Sections: []bin.Section{{Name: ".text", Addr: 0x1000, Data: []byte{0xff, 0xff}}}}
	_, err1 := Load(img)
	_, err2 := Load(img)
	if err1 == nil || err1 != err2 {
		t.Errorf("Load errors %v then %v, want one non-nil error", err1, err2)
	}
}

// TestDroppedImageCollected drops every reference to a loaded image and
// checks that its program goes with it: the program lives on the image,
// not in a process-wide table. The finalizer sits on the boot memory,
// which only the program references.
func TestDroppedImageCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		p, err := Load(assembleT(t, "_start:\n halt\n"))
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(p.boot, func(*mem.Memory) { close(collected) })
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the program of a dropped image was not collected")
}

// TestProgramLeaders checks the block leaders of a small program: the
// first instruction, the jump target, the instructions after each
// control transfer, and nothing past the final halt.
func TestProgramLeaders(t *testing.T) {
	p := progFrom(t, `
_start:
    mov r1, 3
.loop:
    sub r1, 1
    cmp r1, 0
    jne .loop
    call .f
    halt
.f:
    ret
`)
	var addrs []uint64
	p.Instrs(func(addr uint64, _ isa.Instr, _ int) { addrs = append(addrs, addr) })
	// mov, sub, cmp, jne, call, halt, ret
	want := map[int]bool{0: true, 1: true, 4: true, 5: true, 6: true}
	for i, a := range addrs {
		if got := p.Leader(a); got != want[i] {
			t.Errorf("instruction %d at %#x: Leader = %v, want %v", i, a, got, want[i])
		}
	}
	if p.NumLeaders() != len(want) {
		t.Errorf("NumLeaders = %d, want %d", p.NumLeaders(), len(want))
	}
	end := addrs[len(addrs)-1] + 4
	if p.Leader(end) || p.Leader(addrs[0]+1) {
		t.Error("an address that starts no instruction is a leader")
	}
}
