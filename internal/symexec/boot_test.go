package symexec

import (
	"bytes"
	"testing"

	"repro/internal/bin"
	"repro/internal/bombs"
	"repro/internal/gos"
	"repro/internal/mem"
	"repro/internal/sym"
	"repro/internal/vm"
)

// sectionMemory is the concrete memory a symbolic pass started from
// before it cloned the boot memory: every section written into a new
// memory, then the loader's argv block.
func sectionMemory(img *bin.Image, argv []gos.Region, argvStr []string) *mem.Memory {
	m := mem.New()
	for _, sec := range img.Sections {
		m.Write(sec.Addr, sec.Data)
	}
	for i, r := range argv {
		m.WriteUint(bin.ArgBase+uint64(8*i), 8, r.Addr) //nolint:errcheck // size 8 is valid
		if i < len(argvStr) {
			m.WriteCString(r.Addr, argvStr[i])
		}
	}
	m.WriteUint(bin.ArgBase+uint64(8*len(argv)), 8, 0) //nolint:errcheck // size 8 is valid
	return m
}

// TestBootCloneMatchesSections checks, for every bomb under its benign
// input, that the concrete memory initState builds from the program's
// boot memory holds byte for byte what writing the sections and the
// argv block into a new memory gives: the same pages, the same bytes.
func TestBootCloneMatchesSections(t *testing.T) {
	for _, b := range bombs.All() {
		res, err := b.Run(b.Benign, bombs.WithRecording())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if res.Trace.Len() == 0 {
			continue
		}
		prog, err := vm.Load(b.Image())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		argvStr := b.Benign.Config().Argv
		x := &exec{
			opts: fullOptions(EnvInfo{}),
			img:  b.Image(),
			res:  &Result{Seed: make(map[string]uint64)},
			smem: make(map[int]map[uint64]sym.Expr),
			conc: make(map[int]*mem.Memory),
		}
		x.mainPID = res.Trace.Entries[0].PID
		x.initState(prog, res.Argv, argvStr)
		got, want := x.conc[x.mainPID], sectionMemory(b.Image(), res.Argv, argvStr)

		gp, wp := got.Pages(), want.Pages()
		if len(gp) != len(wp) {
			t.Errorf("%s: %d pages from the boot clone, %d from the sections", b.Name, len(gp), len(wp))
			continue
		}
		gb, wb := make([]byte, mem.PageSize), make([]byte, mem.PageSize)
		for i, base := range wp {
			if gp[i] != base {
				t.Errorf("%s: page %#x from the boot clone, %#x from the sections", b.Name, gp[i], base)
				break
			}
			got.Read(base, gb)
			want.Read(base, wb)
			if !bytes.Equal(gb, wb) {
				t.Errorf("%s: page %#x differs", b.Name, base)
			}
		}
	}
}
