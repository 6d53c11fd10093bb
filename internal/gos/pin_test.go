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
const guestRunHash = 0x645ec1ee664707b2

// TestGuestRunPinned runs every bomb under its benign and its trigger
// input three ways: recording with snapshots, coverage-only, and resumed
// from a mid-run snapshot of the recording run with argv1 patched to the
// other input's. It hashes every trace entry field, the stop reason,
// exit status, stdout and step count, the watched hits, the fault and
// web flags, the sorted cover edges and blocks and the COW fault count.
func TestGuestRunPinned(t *testing.T) {
	h := fnv.New64a()
	entries, resumed, cow := 0, 0, uint64(0)
	for _, b := range bombs.All() {
		inputs := [2]bombs.Input{b.Benign, b.Trigger}
		for k, in := range inputs {
			other := inputs[1-k].Argv1
			cfg := func(record bool) gos.Config {
				c := in.Config()
				c.Record = record
				c.Cover = true
				c.WatchAddrs = []uint64{b.BombAddr()}
				return c
			}
			fmt.Fprintf(h, "%s/%d\n", b.Name, k)

			rc := cfg(true)
			rc.SnapshotEvery = 512
			rec, err := gos.New(b.Image(), rc)
			if err != nil {
				t.Fatal(err)
			}
			rres := rec.Run()
			entries += rres.Trace.Len()
			hashRun(h, "record", rec, rres)

			co, err := gos.New(b.Image(), cfg(false))
			if err != nil {
				t.Fatal(err)
			}
			hashRun(h, "cover", co, co.Run())

			snaps := rec.Snapshots()
			if len(snaps) == 0 {
				continue
			}
			s := snaps[len(snaps)/2]
			rm, err := s.Resume(cfg(true), rres.Trace.PrefixCopy(s.TraceLen))
			if err != nil {
				t.Fatal(err)
			}
			if err := rm.PatchArgv(1, other, len(in.Argv1)); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "resume@%d/%d\n", s.Steps, s.TraceLen)
			hashRun(h, "resume", rm, rm.Run())
			resumed++
			cow += rm.COWFaults()
		}
	}
	t.Logf("%d bombs, %d recorded entries, %d resumed runs with %d COW faults", len(bombs.All()), entries, resumed, cow)
	if got := h.Sum64(); got != guestRunHash {
		t.Errorf("guest run hash %#x, want %#x", got, uint64(guestRunHash))
	}
}

func hashRun(h io.Writer, kind string, m *gos.Machine, r *gos.Result) {
	fmt.Fprintf(h, "%s %s %d %q %d faulted=%v web=%v cow=%d argv=%+v\n",
		kind, r.Reason, r.ExitStatus, r.Stdout, r.Steps, r.Faulted, r.Web, m.COWFaults(), r.Argv)
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
