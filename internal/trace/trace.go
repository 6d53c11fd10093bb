// Package trace defines the instruction-trace records produced by concrete
// execution and consumed by the taint engine and the symbolic executor.
// This is the "instruction tracing" stage of the paper's Figure 1 framework
// (the role Intel Pin plays for BAP and Triton).
package trace

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// Entry describes one executed instruction together with the concrete
// values the symbolic stage needs: operand values before execution,
// effective addresses, transferred memory values and branch outcomes.
type Entry struct {
	Index int    // position in the trace
	TID   int    // executing thread context
	PID   int    // owning process
	PC    uint64 // address of the instruction
	Instr isa.Instr

	V1 uint64 // value of R1 before execution (when the mode uses R1)
	V2 uint64 // value of R2 before execution (when the mode uses R2)

	Addr   uint64 // effective memory address for ld/st/push/pop
	MemVal uint64 // value loaded or stored, zero-extended

	Taken  bool   // outcome of a conditional jump
	NextPC uint64 // resolved successor pc (jumps, call, ret)

	Sys *SysEvent // set when Instr is a syscall
	Exc *ExcEvent // set when the instruction faulted

	Tainted bool // marked later by the taint engine
}

// String renders a compact single-line description for debug dumps.
func (e *Entry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6d p%d/t%d %#06x  %-24s", e.Index, e.PID, e.TID, e.PC, e.Instr.String())
	if e.Instr.Op.IsCondJump() {
		fmt.Fprintf(&b, " taken=%v", e.Taken)
	}
	if e.Sys != nil {
		fmt.Fprintf(&b, " sys=%s ret=%#x", e.Sys.Num, e.Sys.Ret)
	}
	if e.Exc != nil {
		fmt.Fprintf(&b, " exc=%s", e.Exc.Kind)
	}
	if e.Tainted {
		b.WriteString(" *")
	}
	return b.String()
}

// Sysno identifies a guest system call.
type Sysno uint64

// Guest system calls. See package gos for semantics.
const (
	SysExit         Sysno = 1
	SysRead         Sysno = 2
	SysWrite        Sysno = 3
	SysOpen         Sysno = 4
	SysClose        Sysno = 5
	SysTime         Sysno = 6
	SysGetpid       Sysno = 7
	SysFork         Sysno = 8
	SysPipe         Sysno = 9
	SysThreadCreate Sysno = 10
	SysThreadJoin   Sysno = 11
	SysWebGet       Sysno = 12
	SysSigHandler   Sysno = 13
	SysUnlink       Sysno = 14
	SysSleep        Sysno = 15
	SysWait         Sysno = 16
	SysKvPut        Sysno = 17
	SysKvGet        Sysno = 18
	SysStat         Sysno = 19
	SysGetenv       Sysno = 20
)

var sysNames = map[Sysno]string{
	SysExit: "exit", SysRead: "read", SysWrite: "write", SysOpen: "open",
	SysClose: "close", SysTime: "time", SysGetpid: "getpid", SysFork: "fork",
	SysPipe: "pipe", SysThreadCreate: "thread_create", SysThreadJoin: "thread_join",
	SysWebGet: "web_get", SysSigHandler: "sighandler", SysUnlink: "unlink",
	SysSleep: "sleep", SysWait: "wait",
	SysKvPut: "kv_put", SysKvGet: "kv_get",
	SysStat: "stat", SysGetenv: "getenv",
}

// String returns the syscall name.
func (s Sysno) String() string {
	if n, ok := sysNames[s]; ok {
		return n
	}
	return fmt.Sprintf("sys(%d)", uint64(s))
}

// SysEvent records the semantic effect of one system call, so that the
// symbolic stage can model data that crossed the process boundary.
type SysEvent struct {
	Num  Sysno
	Args [5]uint64
	Ret  uint64

	// Addr/Data describe a guest buffer involved in the call: the bytes
	// written by the guest (write) or delivered to the guest (read,
	// web_get, pipe reads).
	Addr uint64
	Data []byte

	// Path is the file path for open/unlink, or the URL for web_get.
	Path string

	// Obj identifies the kernel object involved: file path for reads and
	// writes through a file fd, or "pipe:<id>" for pipe ends.
	Obj string

	// Off is the object byte offset at which Data starts, for file IO.
	Off uint64

	// NewID carries the created identity: child pid for fork, tid for
	// thread_create, and the two pipe fds packed lo/hi for pipe.
	NewID uint64
}

// ExcEvent records a hardware exception raised by an instruction.
type ExcEvent struct {
	Kind      string // "div0", "badpc"
	Handled   bool   // a registered guest handler was invoked
	HandlerPC uint64 // entry point of the handler, if handled
	ResumePC  uint64 // address pushed for the handler to return to
}

// Trace is an append-only sequence of entries for one machine run.
type Trace struct {
	Entries []Entry
}

// Append adds an entry, assigning its index.
func (t *Trace) Append(e Entry) {
	e.Index = len(t.Entries)
	t.Entries = append(t.Entries, e)
}

// Len returns the number of recorded entries.
func (t *Trace) Len() int { return len(t.Entries) }

// TaintedCount returns how many entries the taint stage marked.
func (t *Trace) TaintedCount() int {
	n := 0
	for i := range t.Entries {
		if t.Entries[i].Tainted {
			n++
		}
	}
	return n
}

// Dump renders the trace (or only its tainted entries) for debugging.
func (t *Trace) Dump(onlyTainted bool) string {
	var b strings.Builder
	for i := range t.Entries {
		e := &t.Entries[i]
		if onlyTainted && !e.Tainted {
			continue
		}
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
