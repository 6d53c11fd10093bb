package gos

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/bin"
	"repro/internal/trace"
)

func build(t *testing.T, text string) *bin.Image {
	t.Helper()
	img, err := asm.Assemble(asm.Source{Name: "t.s", Text: text})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img
}

func runProg(t *testing.T, text string, cfg Config) *Result {
	t.Helper()
	m, err := New(build(t, text), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m.Run()
}

func TestExitStatus(t *testing.T) {
	res := runProg(t, `
_start:
    mov r0, 1
    mov r1, 42
    syscall
`, Config{})
	if res.Reason != StopExit || res.ExitStatus != 42 {
		t.Errorf("got %s/%d, want exit/42", res.Reason, res.ExitStatus)
	}
}

func TestWriteStdout(t *testing.T) {
	res := runProg(t, `
_start:
    mov r0, 3        ; write
    mov r1, 1        ; stdout
    mov r2, msg
    mov r3, 5
    syscall
    mov r0, 1
    mov r1, 0
    syscall
    .data
msg: .ascii "hello"
`, Config{})
	if res.Stdout != "hello" {
		t.Errorf("stdout = %q, want hello", res.Stdout)
	}
}

func TestArgvLayout(t *testing.T) {
	// Program exits with the first byte of argv[1].
	res := runProg(t, `
_start:
    ld.q r3, [r2+8]   ; argv[1]
    ld.b r4, [r3+0]
    mov  r0, 1
    mov  r1, r4
    syscall
`, Config{Argv: []string{"prog", "Z"}})
	if res.ExitStatus != 'Z' {
		t.Errorf("exit = %d, want %d", res.ExitStatus, 'Z')
	}
	if len(res.Argv) != 2 || res.Argv[1].Name != "argv1" || res.Argv[1].Len != 2 {
		t.Errorf("argv regions = %+v", res.Argv)
	}
}

func TestStdinRead(t *testing.T) {
	res := runProg(t, `
_start:
    mov r0, 2        ; read
    mov r1, 0        ; stdin
    mov r2, buf
    mov r3, 8
    syscall
    ld.b r4, [r2+0]  ; wait: r2 got clobbered? no: read preserves r2
    mov r1, r4
    mov r0, 1
    syscall
    .data
buf: .space 16
`, Config{Stdin: []byte("Q...")})
	if res.ExitStatus != 'Q' {
		t.Errorf("exit = %d, want %d", res.ExitStatus, 'Q')
	}
}

func TestFileRoundTrip(t *testing.T) {
	res := runProg(t, `
_start:
    ; fd = open("f", WRITE)
    mov r0, 4
    mov r1, path
    mov r2, 1
    syscall
    mov r10, r0
    ; write(fd, data, 3)
    mov r0, 3
    mov r1, r10
    mov r2, data
    mov r3, 3
    syscall
    ; close(fd)
    mov r0, 5
    mov r1, r10
    syscall
    ; fd = open("f", READ)
    mov r0, 4
    mov r1, path
    mov r2, 0
    syscall
    mov r10, r0
    ; read(fd, buf, 8)
    mov r0, 2
    mov r1, r10
    mov r2, buf
    mov r3, 8
    syscall
    ld.b r4, [r2+1]
    mov r0, 1
    mov r1, r4
    syscall
    .data
path: .asciz "f"
data: .ascii "xyz"
buf:  .space 8
`, Config{Record: true})
	if res.ExitStatus != 'y' {
		t.Errorf("exit = %d, want %d", res.ExitStatus, 'y')
	}
	// The trace must contain read/write sys events naming the file object.
	var sawWrite, sawRead bool
	for _, e := range res.Trace.Entries {
		if e.Sys == nil {
			continue
		}
		if e.Sys.Num == trace.SysWrite && e.Sys.Obj == "f" && string(e.Sys.Data) == "xyz" {
			sawWrite = true
		}
		if e.Sys.Num == trace.SysRead && e.Sys.Obj == "f" && string(e.Sys.Data) == "xyz" {
			sawRead = true
		}
	}
	if !sawWrite || !sawRead {
		t.Errorf("trace missing file IO events: write=%v read=%v", sawWrite, sawRead)
	}
}

func TestOpenMissingFileFails(t *testing.T) {
	res := runProg(t, `
_start:
    mov r0, 4
    mov r1, path
    mov r2, 0
    syscall
    cmp r0, -1
    je  .fail
    mov r1, 0
    jmp .out
.fail:
    mov r1, 7
.out:
    mov r0, 1
    syscall
    .data
path: .asciz "missing"
`, Config{})
	if res.ExitStatus != 7 {
		t.Errorf("exit = %d, want 7 (open should fail)", res.ExitStatus)
	}
}

func TestPreexistingFiles(t *testing.T) {
	res := runProg(t, `
_start:
    mov r0, 4
    mov r1, path
    mov r2, 0
    syscall
    mov r10, r0
    mov r0, 2
    mov r1, r10
    mov r2, buf
    mov r3, 4
    syscall
    ld.b r4, [r2+0]
    mov r0, 1
    mov r1, r4
    syscall
    .data
path: .asciz "/etc/key"
buf:  .space 8
`, Config{Files: map[string][]byte{"/etc/key": []byte("K")}})
	if res.ExitStatus != 'K' {
		t.Errorf("exit = %d, want K", res.ExitStatus)
	}
}

func TestTimeAndPid(t *testing.T) {
	res := runProg(t, `
_start:
    mov r0, 6
    syscall
    mov r9, r0
    mov r0, 7
    syscall
    add r9, r0
    mov r0, 1
    mov r1, r9
    syscall
`, Config{TimeNow: 100, Pid: 17})
	if res.ExitStatus != 117 {
		t.Errorf("exit = %d, want 117", res.ExitStatus)
	}
}

func TestForkAndPipe(t *testing.T) {
	// Parent creates a pipe and forks. Child writes 'V'+1 of argv byte,
	// parent reads it and exits with that value.
	res := runProg(t, `
_start:
    mov r0, 9        ; pipe(fds)
    mov r1, fds
    syscall
    mov r0, 8        ; fork
    syscall
    cmp r0, 0
    je  .child
    ; parent: read(rfd, buf, 1)
    mov r0, 2
    ld.q r1, [r1+0]  ; careful: r1 still fds ptr
    mov r2, buf
    mov r3, 1
    syscall
    ld.b r4, [r2+0]
    mov r0, 1
    mov r1, r4
    syscall
.child:
    mov r5, 'V'
    add r5, 1
    st.b [r2+8], r5   ; wait, r2 clobbered? child has own memory
    ; child: write(wfd, tmp, 1)
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
	if res.ExitStatus != 'W' {
		t.Errorf("exit = %d, want %d", res.ExitStatus, 'W')
	}
}

func TestThreadsAndJoin(t *testing.T) {
	// Main spawns a thread that increments a shared cell, joins, exits
	// with the cell value.
	res := runProg(t, `
worker:
    ld.q r2, [r1+0]
    add  r2, 1
    st.q [r1+0], r2
    ret
_start:
    mov r0, 10        ; thread_create(worker, cell)
    mov r1, worker
    mov r2, cell
    ; args: r1=entry, r2=arg -> but ABI: args r1..r5 of syscall
    ; thread entry receives arg in r1
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
	if res.ExitStatus != 42 {
		t.Errorf("exit = %d, want 42", res.ExitStatus)
	}
}

func TestSignalHandlerDivZero(t *testing.T) {
	// Register a handler; divide by zero; handler sets r10=9 and returns;
	// execution resumes after the faulting div.
	res := runProg(t, `
handler:
    mov r10, 9
    ret
_start:
    mov r0, 13        ; sighandler(handler)
    mov r1, handler
    syscall
    mov r10, 1
    mov r3, 8
    mov r4, 0
    div r3, r4        ; faults; handler runs; resumes here
    mov r0, 1
    mov r1, r10
    syscall
`, Config{})
	if res.ExitStatus != 9 {
		t.Errorf("exit = %d, want 9 (handler must run and resume)", res.ExitStatus)
	}
}

func TestUnhandledFaultKillsProcess(t *testing.T) {
	res := runProg(t, `
_start:
    mov r3, 8
    mov r4, 0
    div r3, r4
    mov r0, 1
    mov r1, 0
    syscall
`, Config{})
	if res.Reason != StopFault {
		t.Errorf("reason = %s, want fault", res.Reason)
	}
}

func TestWebGet(t *testing.T) {
	res := runProg(t, `
_start:
    mov r0, 12
    mov r1, url
    mov r2, buf
    mov r3, 16
    syscall
    ld.b r4, [r2+0]
    mov r0, 1
    mov r1, r4
    syscall
    .data
url: .asciz "http://x/secret"
buf: .space 16
`, Config{WebContent: map[string]string{"http://x/secret": "S3CR"}})
	if res.ExitStatus != 'S' {
		t.Errorf("exit = %d, want S", res.ExitStatus)
	}
}

func TestWebGetMissing(t *testing.T) {
	res := runProg(t, `
_start:
    mov r0, 12
    mov r1, url
    mov r2, buf
    mov r3, 16
    syscall
    mov r1, 0
    cmp r0, -1
    jne .ok
    mov r1, 5
.ok:
    mov r0, 1
    syscall
    .data
url: .asciz "http://nope"
buf: .space 16
`, Config{})
	if res.ExitStatus != 5 {
		t.Errorf("exit = %d, want 5", res.ExitStatus)
	}
}

func TestWaitForChild(t *testing.T) {
	res := runProg(t, `
_start:
    mov r0, 8
    syscall
    cmp r0, 0
    je .child
    ; parent: wait(child) -> status
    mov r1, r0
    mov r0, 16
    syscall
    mov r1, r0
    mov r0, 1
    syscall
.child:
    mov r0, 1
    mov r1, 33
    syscall
`, Config{})
	if res.ExitStatus != 33 {
		t.Errorf("exit = %d, want 33", res.ExitStatus)
	}
}

func TestMaxStepsStops(t *testing.T) {
	res := runProg(t, `
_start:
.loop:
    jmp .loop
`, Config{MaxSteps: 100})
	if res.Reason != StopMaxSteps {
		t.Errorf("reason = %s, want maxsteps", res.Reason)
	}
	if res.Steps != 100 {
		t.Errorf("steps = %d, want 100", res.Steps)
	}
}

func TestWatchAddrs(t *testing.T) {
	img := build(t, `
_start:
    jmp skip
bomb:
    nop
skip:
    mov r0, 1
    mov r1, 0
    syscall
`)
	bombAddr, ok := img.Symbol("bomb")
	if !ok {
		t.Fatal("no bomb symbol")
	}
	m, err := New(img, Config{WatchAddrs: []uint64{bombAddr}})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Hit(bombAddr) {
		t.Error("bomb should not be hit when jumped over")
	}
}

func TestUnknownSyscallReturnsError(t *testing.T) {
	res := runProg(t, `
_start:
    mov r0, 99
    syscall
    mov r1, 0
    cmp r0, -1
    jne .ok
    mov r1, 21
.ok:
    mov r0, 1
    syscall
`, Config{})
	if res.ExitStatus != 21 {
		t.Errorf("exit = %d, want 21", res.ExitStatus)
	}
}

func TestUnlink(t *testing.T) {
	res := runProg(t, `
_start:
    mov r0, 14
    mov r1, path
    syscall
    mov r9, r0       ; 0 on success
    ; open should now fail
    mov r0, 4
    mov r1, path
    mov r2, 0
    syscall
    cmp r0, -1
    jne .bad
    mov r1, 11
    jmp .out
.bad:
    mov r1, 0
.out:
    mov r0, 1
    syscall
    .data
path: .asciz "gone"
`, Config{Files: map[string][]byte{"gone": []byte("x")}})
	if res.ExitStatus != 11 {
		t.Errorf("exit = %d, want 11", res.ExitStatus)
	}
}

func TestTraceRecordsSyscalls(t *testing.T) {
	res := runProg(t, `
_start:
    mov r0, 6
    syscall
    mov r0, 1
    mov r1, 0
    syscall
`, Config{Record: true, TimeNow: 777})
	var found bool
	for _, e := range res.Trace.Entries {
		if e.Sys != nil && e.Sys.Num == trace.SysTime && e.Sys.Ret == 777 {
			found = true
		}
	}
	if !found {
		t.Errorf("trace lacks time syscall event:\n%s", res.Trace.Dump(false))
	}
	if !strings.Contains(res.Trace.Dump(false), "sys=time") {
		t.Error("trace dump should mention sys=time")
	}
}

// TestTraceBufReused records a short run into a buffer a longer run
// left full. Its entries must equal a run into a fresh trace, with
// nothing of the longer run left past them.
func TestTraceBufReused(t *testing.T) {
	img := build(t, `
_start:
    ld.q r3, [r2+8]   ; argv[1]
    mov r4, 0
.loop:
    ld.b r5, [r3+0]   ; strlen: one iteration per byte
    cmp r5, 0
    je .done
    add r3, 1
    add r4, 1
    jmp .loop
.done:
    mov r0, 3         ; write(stdout, argv[1], len)
    mov r1, 1
    ld.q r2, [r2+8]
    mov r3, r4
    syscall
    mov r0, 1
    mov r1, r4
    syscall
`)
	run := func(arg string, buf *trace.Trace) *Result {
		t.Helper()
		m, err := New(img, Config{Argv: []string{"prog", arg}, Record: true, TraceBuf: buf})
		if err != nil {
			t.Fatal(err)
		}
		return m.Run()
	}
	want := run("ab", nil)

	buf := &trace.Trace{}
	long := run("abcdefghijklmnop", buf)
	if long.Trace != buf || long.Trace.Len() <= want.Trace.Len() {
		t.Fatalf("long run: trace %p (buffer %p), %d entries vs %d", long.Trace, buf,
			long.Trace.Len(), want.Trace.Len())
	}
	got := run("ab", buf)
	if got.Trace != buf {
		t.Fatalf("reused run recorded into %p, not the buffer %p", got.Trace, buf)
	}
	if !reflect.DeepEqual(got.Trace.Entries, want.Trace.Entries) {
		t.Errorf("reused buffer: %d entries\n%s\nfresh trace: %d entries\n%s",
			got.Trace.Len(), got.Trace.Dump(false), want.Trace.Len(), want.Trace.Dump(false))
	}
	if got.Stdout != "ab" || got.ExitStatus != 2 {
		t.Errorf("reused run: stdout %q, exit %d", got.Stdout, got.ExitStatus)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Single thread joining itself blocks forever -> deadlock.
	res := runProg(t, `
_start:
    mov r0, 11
    mov r1, 1        ; join own tid
    syscall
    mov r0, 1
    mov r1, 0
    syscall
`, Config{})
	if res.Reason != StopDeadlock {
		t.Errorf("reason = %s, want deadlock", res.Reason)
	}
}

func TestKvStoreSyscalls(t *testing.T) {
	res := runProg(t, `
_start:
    mov r0, 17             ; kv_put("k", data, 3)
    mov r1, key
    mov r2, data
    mov r3, 3
    syscall
    mov r0, 18             ; kv_get("k", buf, 8)
    mov r1, key
    mov r2, buf
    mov r3, 8
    syscall
    mov r9, r0             ; bytes returned (3)
    ld.b r4, [r2+1]        ; 'y'
    add r9, r4
    mov r0, 18             ; kv_get("missing", buf, 8) -> -1
    mov r1, nokey
    mov r2, buf
    mov r3, 8
    syscall
    cmp r0, -1
    jne .bad
    mov r1, r9
    mov r0, 1
    syscall
.bad:
    mov r0, 1
    mov r1, 0
    syscall
    .data
key:   .asciz "k"
nokey: .asciz "missing"
data:  .ascii "xyz"
buf:   .space 8
`, Config{Record: true})
	if res.ExitStatus != 3+'y' {
		t.Errorf("kv roundtrip = %d, want %d", res.ExitStatus, 3+'y')
	}
	var sawPut, sawGet bool
	for _, e := range res.Trace.Entries {
		if e.Sys == nil {
			continue
		}
		if e.Sys.Num == trace.SysKvPut && e.Sys.Obj == "kv:k" {
			sawPut = true
		}
		if e.Sys.Num == trace.SysKvGet && string(e.Sys.Data) == "xyz" {
			sawGet = true
		}
	}
	if !sawPut || !sawGet {
		t.Error("kv events missing from trace")
	}
}

func TestMachineAccessors(t *testing.T) {
	m, err := New(build(t, "_start:\n halt\n"), Config{Argv: []string{"p", "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Program() == nil {
		t.Error("Program() nil")
	}
	if len(m.ArgvRegions()) != 2 {
		t.Errorf("ArgvRegions = %v", m.ArgvRegions())
	}
}

func TestFSHelpers(t *testing.T) {
	fs := NewFS(map[string][]byte{"a": []byte("abc")})
	if !fs.Exists("a") || fs.Exists("b") {
		t.Error("Exists broken")
	}
	data, ok := fs.Contents("a")
	if !ok || string(data) != "abc" {
		t.Errorf("Contents = %q, %v", data, ok)
	}
	if _, ok := fs.Contents("b"); ok {
		t.Error("Contents of missing file should fail")
	}
	// writeAt with a gap pads with zeros.
	f := fs.Open("a")
	f.writeAt(5, []byte("Z"))
	data, _ = fs.Contents("a")
	if len(data) != 6 || data[5] != 'Z' || data[3] != 0 {
		t.Errorf("writeAt gap = %v", data)
	}
}

func TestHugeIOClamped(t *testing.T) {
	// read with an absurd length is clamped, not crashing.
	res := runProg(t, `
_start:
    mov r0, 2
    mov r1, 0
    mov r2, buf
    mov r3, -1       ; 2^64-1 bytes requested
    syscall
    mov r1, r0       ; bytes actually read
    mov r0, 1
    syscall
    .data
buf: .space 8
`, Config{Stdin: []byte("abc")})
	if res.ExitStatus != 3 {
		t.Errorf("clamped read = %d, want 3", res.ExitStatus)
	}
}
