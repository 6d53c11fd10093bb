package gos_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"testing"

	"repro/internal/bombs"
	"repro/internal/gos"
	"repro/internal/trace"
)

// guestRunHash fingerprints every observable of the guest runs below. How
// the VM decodes, dispatches or accesses memory must never move it: it
// may only change together with a deliberate change to the guest's
// semantics (an instruction, a system call, the scheduler or the
// loader).
const guestRunHash = 0x62641a3a00d96bb8

// TestGuestRunPinned runs every bomb from its entry point under its
// benign and its trigger input two ways: recording and coverage-only. It
// hashes every trace entry field, the stop reason, exit status, stdout
// and step count, the watched hits, the fault and web flags and the
// sorted cover edges and blocks.
func TestGuestRunPinned(t *testing.T) {
	h := fnv.New64a()
	entries := 0
	for _, b := range bombs.All() {
		for k, in := range [2]bombs.Input{b.Benign, b.Trigger} {
			cfg := func(record bool) gos.Config {
				c := in.Config()
				c.Record = record
				c.Cover = true
				c.WatchAddrs = []uint64{b.BombAddr()}
				return c
			}
			fmt.Fprintf(h, "%s/%d\n", b.Name, k)

			rec, err := gos.New(b.Image(), cfg(true))
			if err != nil {
				t.Fatal(err)
			}
			rres := rec.Run()
			entries += rres.Trace.Len()
			hashRun(h, "record", rres)

			co, err := gos.New(b.Image(), cfg(false))
			if err != nil {
				t.Fatal(err)
			}
			hashRun(h, "cover", co.Run())
		}
	}
	t.Logf("%d bombs, %d recorded entries", len(bombs.All()), entries)
	if got := h.Sum64(); got != guestRunHash {
		t.Errorf("guest run hash %#x, want %#x", got, uint64(guestRunHash))
	}
}

func hashRun(h io.Writer, kind string, r *gos.Result) {
	fmt.Fprintf(h, "%s %s %d %q %d faulted=%v web=%v argv=%+v\n",
		kind, r.Reason, r.ExitStatus, r.Stdout, r.Steps, r.Faulted, r.Web, r.Argv)
	watched := make([]uint64, 0, len(r.Watched))
	for a := range r.Watched {
		watched = append(watched, a)
	}
	sort.Slice(watched, func(i, j int) bool { return watched[i] < watched[j] })
	for _, a := range watched {
		fmt.Fprintf(h, "w %#x %v\n", a, r.Watched[a])
	}
	fmt.Fprintf(h, "edges %v\nblocks %v\n", r.Cover.Edges(), r.Cover.Blocks())
	if r.Trace != nil {
		for i := range r.Trace.Entries {
			hashEntry(h, &r.Trace.Entries[i])
		}
	}
}

func hashEntry(w io.Writer, e *trace.Entry) {
	in := e.Instr // hashed field by field: its String form is a disassembly
	fmt.Fprintf(w, "%d %d %d %#x %d/%d/%d/%d/%d/%#x %#x %#x %#x %#x %v %#x %v\n",
		e.Index, e.TID, e.PID, e.PC, uint8(in.Op), uint8(in.Mode), in.Size, uint8(in.R1), uint8(in.R2), in.Imm,
		e.V1, e.V2, e.Addr, e.MemVal, e.Taken, e.NextPC, e.Tainted)
	if e.Sys != nil {
		fmt.Fprintf(w, "sys %+v\n", *e.Sys)
	}
	if e.Exc != nil {
		fmt.Fprintf(w, "exc %+v\n", *e.Exc)
	}
}
