package gos

import (
	"reflect"
	"testing"
)

// runWithSnaps runs the program recording a full trace and taking
// snapshots on a short cadence.
func runWithSnaps(t *testing.T, text string, cfg Config) (*Result, []*Snapshot) {
	t.Helper()
	cfg.Record = true
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 50
	}
	m, err := New(build(t, text), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := m.Run()
	return res, m.Snapshots()
}

// assertResumeIdentical resumes every snapshot under the same config and
// requires the continued run to reproduce the original result exactly —
// reason, status, stdout, step count and every trace entry.
func assertResumeIdentical(t *testing.T, text string, cfg Config) {
	t.Helper()
	res, snaps := runWithSnaps(t, text, cfg)
	if len(snaps) == 0 {
		t.Fatal("no snapshots taken; make the program longer or the cadence shorter")
	}
	for i, s := range snaps {
		rcfg := cfg
		rcfg.Record = true
		if rcfg.SnapshotEvery == 0 {
			rcfg.SnapshotEvery = 50
		}
		m, err := s.Resume(rcfg, res.Trace.PrefixCopy(s.TraceLen))
		if err != nil {
			t.Fatalf("snapshot %d: Resume: %v", i, err)
		}
		got := m.Run()
		if got.Reason != res.Reason || got.ExitStatus != res.ExitStatus {
			t.Errorf("snapshot %d: got %s/%d, want %s/%d",
				i, got.Reason, got.ExitStatus, res.Reason, res.ExitStatus)
		}
		if got.Stdout != res.Stdout {
			t.Errorf("snapshot %d: stdout %q, want %q", i, got.Stdout, res.Stdout)
		}
		if got.Steps != res.Steps {
			t.Errorf("snapshot %d: steps %d, want %d", i, got.Steps, res.Steps)
		}
		if got.Trace.Len() != res.Trace.Len() {
			t.Fatalf("snapshot %d: trace len %d, want %d", i, got.Trace.Len(), res.Trace.Len())
		}
		for j := range res.Trace.Entries {
			if !reflect.DeepEqual(got.Trace.Entries[j], res.Trace.Entries[j]) {
				t.Fatalf("snapshot %d: trace entry %d differs:\n got %s\nwant %s",
					i, j, got.Trace.Entries[j].String(), res.Trace.Entries[j].String())
			}
		}
	}
}

func TestSnapshotResumeIdentical(t *testing.T) {
	// Burn cycles across several slices, then touch most machine
	// surfaces: argv, time, file IO, kv store, stdout.
	assertResumeIdentical(t, `
_start:
    mov r3, 100
.burn:
    sub r3, 1
    cmp r3, 0
    jne .burn
    ld.q r2, [r2+8]   ; argv[1]
    ld.b r4, [r2+0]
    mov r0, 6         ; time
    syscall
    add r4, r0
    mov r0, 17        ; kv_put("k", data, 3)
    mov r1, key
    mov r2, data
    mov r3, 3
    syscall
    mov r0, 18        ; kv_get("k", buf, 8)
    mov r1, key
    mov r2, buf
    mov r3, 8
    syscall
    mov r0, 3         ; write(stdout, data, 3)
    mov r1, 1
    mov r2, data
    mov r3, 3
    syscall
    mov r0, 1
    mov r1, r4
    syscall
    .data
key:  .asciz "k"
data: .ascii "xyz"
buf:  .space 8
`, Config{Argv: []string{"prog", "A"}, TimeNow: 5})
}

func TestSnapshotResumeForkPipe(t *testing.T) {
	// Fork + pipe with blocked reads: snapshots land while the parent is
	// blocked and while two processes are live.
	assertResumeIdentical(t, `
_start:
    mov r0, 9        ; pipe(fds)
    mov r1, fds
    syscall
    mov r0, 8        ; fork
    syscall
    cmp r0, 0
    je  .child
    mov r0, 2        ; parent: read(rfd, buf, 1)
    ld.q r1, [r1+0]
    mov r2, buf
    mov r3, 1
    syscall
    ld.b r4, [r2+0]
    mov r0, 1
    mov r1, r4
    syscall
.child:
    mov r6, 400      ; make the child slow so the parent blocks
.spin:
    sub r6, 1
    cmp r6, 0
    jne .spin
    mov r5, 'V'
    mov r1, fds
    ld.q r1, [r1+8]
    mov r2, tmp
    st.b [r2+0], r5
    mov r0, 3
    mov r3, 1
    syscall
    mov r0, 1
    mov r1, 0
    syscall
    .data
fds: .space 16
buf: .space 8
tmp: .space 8
`, Config{})
}

func TestSnapshotResumeThreads(t *testing.T) {
	assertResumeIdentical(t, `
worker:
    mov r3, 150
.w:
    sub r3, 1
    cmp r3, 0
    jne .w
    ld.q r2, [r1+0]
    add  r2, 1
    st.q [r1+0], r2
    ret
_start:
    mov r0, 10        ; thread_create(worker, cell)
    mov r1, worker
    mov r2, cell
    syscall
    mov r3, r0
    mov r0, 11        ; join(tid)
    mov r1, r3
    syscall
    mov r4, cell
    ld.q r5, [r4+0]
    mov r0, 1
    mov r1, r5
    syscall
    .data
cell: .quad 41
`, Config{})
}

func TestSnapshotResumeUnlinkedOpenFile(t *testing.T) {
	// An fd that outlives its directory entry: snapshot aliasing must
	// keep the open file readable after resume while the path stays gone.
	assertResumeIdentical(t, `
_start:
    mov r0, 4         ; fd = open("f", READ)
    mov r1, path
    mov r2, 0
    syscall
    mov r10, r0
    mov r0, 14        ; unlink("f")
    mov r1, path
    syscall
    mov r3, 200
.burn:
    sub r3, 1
    cmp r3, 0
    jne .burn
    mov r0, 2         ; read(fd, buf, 4) still works
    mov r1, r10
    mov r2, buf
    mov r3, 4
    syscall
    ld.b r4, [r2+0]
    mov r0, 1
    mov r1, r4
    syscall
    .data
path: .asciz "f"
buf:  .space 8
`, Config{Files: map[string][]byte{"f": []byte("Q!")}})
}

// TestSnapshotResumePatchedArgv is the divergence-replay contract: a
// snapshot taken before the program ever reads argv can be resumed with
// a different argv[1] — including a different length — and must behave
// exactly like a from-scratch run on the new input.
func TestSnapshotResumePatchedArgv(t *testing.T) {
	prog := `
_start:
    mov r3, 120
.burn:
    sub r3, 1
    cmp r3, 0
    jne .burn
    ld.q r2, [r2+8]   ; argv[1]
    mov r9, 0
.len:
    ld.b r4, [r2+0]
    cmp r4, 0
    je .done
    add r9, r4
    add r2, 1
    jmp .len
.done:
    mov r0, 1
    mov r1, r9
    syscall
`
	parentCfg := Config{Argv: []string{"prog", "abc"}}
	parentRes, snaps := runWithSnaps(t, prog, parentCfg)
	if len(snaps) == 0 {
		t.Fatal("no snapshots")
	}
	// Every snapshot here lands inside the burn loop (120*3+1 = 361
	// steps before the first argv read), so all are pre-divergence.
	for _, childArg := range []string{"xyz", "q", "longer-than-parent"} {
		childCfg := Config{Argv: []string{"prog", childArg}, Record: true}
		wantM, err := New(build(t, prog), childCfg)
		if err != nil {
			t.Fatal(err)
		}
		want := wantM.Run()

		s := snaps[0]
		m, err := s.Resume(childCfg, parentRes.Trace.PrefixCopy(s.TraceLen))
		if err != nil {
			t.Fatalf("Resume: %v", err)
		}
		if err := m.PatchArgv(1, childArg, len(parentCfg.Argv[1])); err != nil {
			t.Fatalf("PatchArgv: %v", err)
		}
		got := m.Run()
		if got.ExitStatus != want.ExitStatus || got.Reason != want.Reason {
			t.Errorf("arg %q: got %s/%d, want %s/%d",
				childArg, got.Reason, got.ExitStatus, want.Reason, want.ExitStatus)
		}
		if got.Steps != want.Steps {
			t.Errorf("arg %q: steps %d, want %d", childArg, got.Steps, want.Steps)
		}
		if got.Trace.Len() != want.Trace.Len() {
			t.Fatalf("arg %q: trace len %d, want %d", childArg, got.Trace.Len(), want.Trace.Len())
		}
		for j := range want.Trace.Entries {
			if !reflect.DeepEqual(got.Trace.Entries[j], want.Trace.Entries[j]) {
				t.Fatalf("arg %q: entry %d differs:\n got %s\nwant %s",
					childArg, j, got.Trace.Entries[j].String(), want.Trace.Entries[j].String())
			}
		}
		if len(got.Argv) != 2 || got.Argv[1].Len != len(childArg)+1 {
			t.Errorf("arg %q: argv regions not repatched: %+v", childArg, got.Argv)
		}
	}
}

// TestResumeTraceMatchesRecord: a recording resume needs the prefix to
// append to, and a coverage-only one must not be handed one.
func TestResumeTraceMatchesRecord(t *testing.T) {
	res, snaps := runWithSnaps(t, `
_start:
    mov r3, 200
.burn:
    sub r3, 1
    cmp r3, 0
    jne .burn
    halt
`, Config{})
	if len(snaps) == 0 {
		t.Fatal("no snapshots")
	}
	s := snaps[len(snaps)-1]
	if _, err := s.Resume(Config{Record: true}, nil); err == nil {
		t.Error("recording resume without a trace prefix succeeded")
	}
	if _, err := s.Resume(Config{Cover: true}, res.Trace.PrefixCopy(s.TraceLen)); err == nil {
		t.Error("coverage-only resume with a trace prefix succeeded")
	}
	m, err := s.Resume(Config{Cover: true}, nil)
	if err != nil {
		t.Fatalf("coverage-only resume: %v", err)
	}
	if got := m.Run(); got.Trace != nil || got.Cover == nil || got.Steps != res.Steps {
		t.Errorf("coverage-only resume: trace %v, cover %v, steps %d (want %d)",
			got.Trace != nil, got.Cover != nil, got.Steps, res.Steps)
	}
}

func TestPatchArgvErrors(t *testing.T) {
	m, err := New(build(t, "_start:\n halt\n"), Config{Argv: []string{"p", "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PatchArgv(5, "y", 1); err == nil {
		t.Error("PatchArgv out of range should fail")
	}
	if err := m.PatchArgv(1, "y", 1); err != nil {
		t.Errorf("PatchArgv in range: %v", err)
	}
}

func TestSnapshotCadenceBounds(t *testing.T) {
	res, snaps := runWithSnaps(t, `
_start:
.loop:
    jmp .loop
`, Config{MaxSteps: 3000, SnapshotEvery: 64})
	if res.Reason != StopMaxSteps {
		t.Fatalf("reason = %s", res.Reason)
	}
	if len(snaps) == 0 || len(snaps) > maxSnapshots {
		t.Fatalf("snapshot count %d out of bounds", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Steps <= snaps[i-1].Steps {
			t.Fatalf("snapshots not strictly ordered: %d then %d", snaps[i-1].Steps, snaps[i].Steps)
		}
	}
}
