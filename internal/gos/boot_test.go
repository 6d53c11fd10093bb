package gos

import (
	"bytes"
	"testing"

	"repro/internal/vm"
)

// TestBootImageIsolated runs two machines from one vm.Program. The first
// overwrites its data section, forks, and the child overwrites it again.
// The second machine must still read the section's loaded bytes, and
// the Program's boot memory must be unchanged: every machine starts
// from a copy-on-write clone that only it writes.
func TestBootImageIsolated(t *testing.T) {
	img := build(t, `
_start:
    mov r0, 3        ; write(stdout, msg, 4): the bytes as this machine sees them
    mov r1, 1
    mov r2, msg
    mov r3, 4
    syscall
    mov r2, msg
    mov r5, 88       ; 'X'
    st.b [r2+0], r5
    mov r0, 8        ; fork
    syscall
    cmp r0, 0
    je .child
    mov r1, r0       ; parent: wait(child)
    mov r0, 16
    syscall
    mov r0, 1
    mov r1, 0
    syscall
.child:
    mov r2, msg
    mov r5, 89       ; 'Y'
    st.b [r2+1], r5
    mov r0, 1
    mov r1, 0
    syscall
    .data
msg: .ascii "boot"
`)
	prog, err := vm.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	data, ok := img.Section(".data")
	if !ok {
		t.Fatal("no .data section")
	}
	first, second := NewProgram(prog, Config{}), NewProgram(prog, Config{})

	if res := first.Run(); res.Reason != StopExit || res.Stdout != "boot" {
		t.Fatalf("first machine: %s %q, want exit \"boot\"", res.Reason, res.Stdout)
	}
	if got := first.procs[1].mem.LoadByte(data.Addr); got != 'X' {
		t.Errorf("first machine's own write lost: %q", got)
	}
	if first.COWFaults() == 0 {
		t.Error("first machine wrote boot pages without copying them")
	}

	got := make([]byte, len(data.Data))
	second.procs[1].mem.Read(data.Addr, got)
	if !bytes.Equal(got, data.Data) {
		t.Errorf("second machine reads %q before running, want %q", got, data.Data)
	}
	if res := second.Run(); res.Stdout != "boot" {
		t.Errorf("second machine prints %q, want \"boot\"", res.Stdout)
	}
	prog.Memory().Read(data.Addr, got)
	if !bytes.Equal(got, data.Data) {
		t.Errorf("boot memory holds %q after both runs, want %q", got, data.Data)
	}
}
