// Package gos implements the guest operating system for LB64 programs: a
// deterministic scheduler over threads and forked processes, an in-memory
// filesystem, pipes, a simulated network, signal dispatch for arithmetic
// faults, and the system-call table.
//
// Everything is deterministic: time is configuration, scheduling is
// round-robin with a fixed quantum, and the "network" serves configured
// content. This is what makes concrete re-execution (the replay check of
// the paper's §V-B methodology) exact.
package gos

import (
	"bytes"
	"fmt"

	"repro/internal/bin"
	"repro/internal/cover"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Config parameterizes one machine run. Everything the paper treats as
// "environment" (argv, stdin, clock, pid, network, pre-existing files) is
// explicit here so that runs are reproducible and so the engine can treat
// any of it as a symbolic source.
type Config struct {
	// Argv is the program argument vector, argv[0] being the program name.
	Argv []string
	// Stdin is the byte stream served to reads from fd 0.
	Stdin []byte
	// TimeNow is the value returned by the time system call.
	TimeNow uint64
	// Pid is the pid reported for the root process by getpid.
	Pid uint64
	// WebContent maps URL -> body served by the web_get system call.
	WebContent map[string]string
	// Files pre-populates the in-memory filesystem.
	Files map[string][]byte
	// Env maps environment variable names to values served by the getenv
	// system call — a contextual input surface like time and pid.
	Env map[string]string
	// MaxSteps bounds total executed instructions (0 = default).
	MaxSteps int
	// Quantum is the scheduler time slice in instructions (0 = default).
	Quantum int
	// Record enables full trace recording.
	Record bool
	// Cover builds Result.Cover as the run executes: the edges between
	// consecutive PCs of each thread and the executed blocks, the same
	// set cover.FromTrace folds from a recorded trace. With Record off
	// this is the AFL-style coverage-only mode fuzz mutants run in: no
	// per-instruction trace is kept.
	Cover bool
	// CoverLeaders restricts Result.Cover's blocks to these PCs, as
	// cover.FromTrace's leaders do (nil: every executed PC).
	CoverLeaders map[uint64]bool
	// WatchAddrs lists instruction addresses whose execution should be
	// reported in Result.Watched (the directed-search target check).
	WatchAddrs []uint64
}

// Defaults for Config zero values.
const (
	DefaultMaxSteps = 2_000_000
	DefaultQuantum  = 64
	threadStackSize = 0x20000
)

// StopReason says why a run ended.
type StopReason string

// Stop reasons.
const (
	StopExit     StopReason = "exit"     // root process called exit
	StopMaxSteps StopReason = "maxsteps" // instruction budget exhausted
	StopDeadlock StopReason = "deadlock" // every live thread is blocked
	StopFault    StopReason = "fault"    // unhandled fault in the root process
)

// Region names a byte range of guest memory holding input data, used by
// the taint and symbolic stages to place symbolic variables.
type Region struct {
	Name string // "argv1", "argv2", ...
	Addr uint64
	Len  int // includes the NUL terminator
}

// Result summarizes one machine run.
type Result struct {
	Reason     StopReason
	ExitStatus int
	Stdout     string
	Steps      int
	Watched    map[uint64]bool
	Trace      *trace.Trace // nil unless Config.Record
	Cover      *cover.Set   // nil unless Config.Cover
	Argv       []Region

	// Faulted reports that some executed instruction raised an exception
	// and Web that one was a web_get system call: what a recorded trace
	// would show as an entry with Exc set, or with Sys.Num SysWebGet.
	Faulted bool
	Web     bool
}

// Hit reports whether the watched address was reached.
func (r *Result) Hit(addr uint64) bool { return r.Watched[addr] }

// Machine is one guest machine: a loaded program plus OS state.
type Machine struct {
	prog *vm.Program
	cfg  Config

	fs      *FS
	kv      map[string][]byte
	pipes   map[int]*pipe
	procs   map[int]*proc
	threads []*thread // run queue order; dead threads are pruned lazily
	cur     int       // index into threads of the running thread

	nextPID  int
	nextTID  int
	nextPipe int

	stdout   bytes.Buffer
	stdinOff int

	tr      *trace.Trace
	cov     *cover.Set // nil unless cfg.Cover
	faulted bool       // some recorded entry has an Exc
	web     bool       // some recorded entry is a web_get syscall
	watched map[uint64]bool
	steps   int

	stopped bool
	reason  StopReason
	status  int

	argv []Region
}

type proc struct {
	pid        int
	mem        *mem.Memory
	fds        map[int]*fdesc
	nextFD     int
	sigHandler uint64
	liveThr    int
	exited     bool
	status     int
	waiters    []*thread
	nextStack  uint64
}

type thread struct {
	tid   int
	proc  *proc
	cpu   *vm.CPU
	dead  bool
	block blockState

	// lastPC is the PC of the thread's most recently recorded entry
	// (valid once ran is set): the source of its next coverage edge. A
	// thread is one (PID, TID) flow of cover.FromTrace — fork starts the
	// child on a new thread with a fresh TID.
	lastPC uint64
	ran    bool

	joinWaiters []*thread
}

type blockKind int

const (
	blockNone blockKind = iota
	blockJoin           // waiting for thread block.id to die
	blockRead           // waiting for data on pipe fd block.id
	blockWait           // waiting for process block.id to exit
)

type blockState struct {
	kind blockKind
	id   int
}

type fdKind int

const (
	fdStdin fdKind = iota + 1
	fdStdout
	fdFile
	fdPipe
)

type fdesc struct {
	kind     fdKind
	path     string
	file     *file
	off      int
	pipe     *pipe
	writeEnd bool
}

type pipe struct {
	id       int
	buf      []byte
	readOff  uint64 // total bytes ever consumed, for SysEvent.Off
	writeOff uint64 // total bytes ever written
	writers  int    // open write-end descriptors
}

// New creates a machine for the image under the given configuration.
func New(img *bin.Image, cfg Config) (*Machine, error) {
	prog, err := vm.LoadProgram(img)
	if err != nil {
		return nil, err
	}
	return NewProgram(prog, cfg), nil
}

// NewProgram creates a machine for an already loaded program under the
// given configuration. A caller that runs one image many times loads it
// once and shares the program: it is read-only after load, and each
// machine starts from a copy-on-write clone of its boot memory.
func NewProgram(prog *vm.Program, cfg Config) *Machine {
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultQuantum
	}
	if len(cfg.Argv) == 0 {
		cfg.Argv = []string{"prog"}
	}
	if cfg.Pid == 0 {
		cfg.Pid = 4242
	}
	m := &Machine{
		prog:     prog,
		cfg:      cfg,
		fs:       NewFS(cfg.Files),
		kv:       make(map[string][]byte),
		pipes:    make(map[int]*pipe),
		procs:    make(map[int]*proc),
		watched:  make(map[uint64]bool),
		nextPID:  1,
		nextTID:  1,
		nextPipe: 1,
	}
	if cfg.Record {
		m.tr = &trace.Trace{}
	}
	if cfg.Cover {
		m.cov = cover.NewSet()
	}
	for _, a := range cfg.WatchAddrs {
		m.watched[a] = false
	}
	m.loadRoot()
	return m
}

// loadRoot creates the root process on a clone of the boot memory and
// writes only what depends on the configuration: the argv block and the
// exit sentinel under the initial stack pointer.
func (m *Machine) loadRoot() {
	p := &proc{
		pid:       m.nextPID,
		mem:       m.prog.Memory(),
		fds:       make(map[int]*fdesc),
		nextFD:    3,
		nextStack: bin.StackTop - threadStackSize,
	}
	m.nextPID++
	p.fds[0] = &fdesc{kind: fdStdin}
	p.fds[1] = &fdesc{kind: fdStdout}
	p.fds[2] = &fdesc{kind: fdStdout}

	// Build the argv block: pointer array at ArgBase, strings after it.
	argc := len(m.cfg.Argv)
	strBase := bin.ArgBase + uint64(8*(argc+1))
	cursor := strBase
	for i, s := range m.cfg.Argv {
		p.mem.WriteUint(bin.ArgBase+uint64(8*i), 8, cursor) //nolint:errcheck // size 8 is valid
		p.mem.WriteCString(cursor, s)
		m.argv = append(m.argv, Region{
			Name: fmt.Sprintf("argv%d", i),
			Addr: cursor,
			Len:  len(s) + 1,
		})
		cursor += uint64(len(s) + 1)
	}
	p.mem.WriteUint(bin.ArgBase+uint64(8*argc), 8, 0) //nolint:errcheck // size 8 is valid

	cpu := &vm.CPU{PC: m.prog.Image.Entry}
	cpu.SetSP(bin.StackTop - 8)
	p.mem.WriteUint(cpu.SP(), 8, vm.ExitThreadPC) //nolint:errcheck // size 8 is valid
	cpu.Regs[1] = uint64(argc)
	cpu.Regs[2] = bin.ArgBase

	t := &thread{tid: m.nextTID, proc: p, cpu: cpu}
	m.nextTID++
	p.liveThr = 1
	m.procs[p.pid] = p
	m.threads = append(m.threads, t)
}

// ArgvRegions returns where the loader placed the argument strings.
func (m *Machine) ArgvRegions() []Region { return m.argv }

// COWFaults sums the copy-on-write page faults across the memories of
// all processes in the machine — how many guest pages were copied
// because a write hit a page shared with the boot memory or with a
// forked parent or child.
func (m *Machine) COWFaults() uint64 {
	var n uint64
	for _, p := range m.procs {
		n += p.mem.COWFaults()
	}
	return n
}

// Program returns the decoded program.
func (m *Machine) Program() *vm.Program { return m.prog }

// Run executes the machine to completion and returns the result.
func (m *Machine) Run() *Result {
	for !m.stopped {
		t := m.pickThread()
		if t == nil {
			m.stop(StopDeadlock, 0)
			break
		}
		m.runSlice(t)
	}
	res := &Result{
		Reason:     m.reason,
		ExitStatus: m.status,
		Stdout:     m.stdout.String(),
		Steps:      m.steps,
		Watched:    m.watched,
		Trace:      m.tr,
		Cover:      m.cov,
		Argv:       m.argv,
		Faulted:    m.faulted,
		Web:        m.web,
	}
	return res
}

// pickThread advances the round-robin cursor to the next runnable thread.
func (m *Machine) pickThread() *thread {
	// Prune dead threads opportunistically.
	live := m.threads[:0]
	for _, t := range m.threads {
		if !t.dead {
			live = append(live, t)
		}
	}
	m.threads = live
	if len(m.threads) == 0 {
		return nil
	}
	for i := 0; i < len(m.threads); i++ {
		idx := (m.cur + i) % len(m.threads)
		t := m.threads[idx]
		if t.block.kind == blockNone {
			m.cur = idx
			return t
		}
	}
	return nil
}

// runSlice runs one scheduler quantum on thread t.
func (m *Machine) runSlice(t *thread) {
	var e trace.Entry // refilled in place by every step
	for n := 0; n < m.cfg.Quantum && !m.stopped && !t.dead && t.block.kind == blockNone; n++ {
		if m.steps >= m.cfg.MaxSteps {
			m.stop(StopMaxSteps, 0)
			return
		}
		m.steps++
		for _, a := range m.cfg.WatchAddrs {
			if a == t.cpu.PC {
				m.watched[a] = true
			}
		}
		kind := vm.Exec(t.cpu, t.proc.mem, m.prog, &e)
		e.TID = t.tid
		e.PID = t.proc.pid
		switch kind {
		case vm.StepNormal:
			if t.cpu.PC == vm.ExitThreadPC {
				m.record(t, &e)
				m.exitThread(t)
				continue
			}
		case vm.StepHalt:
			m.record(t, &e)
			m.exitProc(t.proc, 0)
			continue
		case vm.StepSyscall:
			if !m.syscall(t, &e) {
				continue // blocked; the call will be re-issued
			}
		case vm.StepFault:
			m.fault(t, &e)
		}
		m.record(t, &e)
	}
	m.cur = (m.cur + 1) % maxInt(len(m.threads), 1)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// record accounts one executed entry of thread t: appended to the trace
// when recording, folded into the coverage set when covering, and into
// the run's fault and web flags always. A block is looked up only when
// its edge is new to the set (or starts the flow): an edge seen before
// already brought its target block in.
func (m *Machine) record(t *thread, e *trace.Entry) {
	if m.tr != nil {
		m.tr.Append(*e)
	}
	if e.Exc != nil {
		m.faulted = true
	}
	if e.Sys != nil && e.Sys.Num == trace.SysWebGet {
		m.web = true
	}
	if m.cov != nil && (!t.ran || m.cov.AddEdge(cover.Edge{From: t.lastPC, To: e.PC})) &&
		(m.cfg.CoverLeaders == nil || m.cfg.CoverLeaders[e.PC]) {
		m.cov.AddBlock(e.PC)
	}
	t.lastPC, t.ran = e.PC, true
}

func (m *Machine) stop(r StopReason, status int) {
	if m.stopped {
		return
	}
	m.stopped = true
	m.reason = r
	m.status = status
}

func (m *Machine) exitThread(t *thread) {
	if t.dead {
		return
	}
	t.dead = true
	t.proc.liveThr--
	for _, w := range t.joinWaiters {
		if w.block.kind == blockJoin && w.block.id == t.tid {
			w.block = blockState{}
		}
	}
	t.joinWaiters = nil
	if t.proc.liveThr == 0 && !t.proc.exited {
		m.finishProc(t.proc, 0)
	}
}

func (m *Machine) exitProc(p *proc, status int) {
	if p.exited {
		return
	}
	for _, t := range m.threads {
		if t.proc == p {
			t.dead = true
		}
	}
	p.liveThr = 0
	m.finishProc(p, status)
}

func (m *Machine) finishProc(p *proc, status int) {
	p.exited = true
	p.status = status
	// Close descriptors so pipe readers see EOF.
	for fd := range p.fds {
		m.closeFD(p, fd)
	}
	for _, w := range p.waiters {
		if w.block.kind == blockWait && w.block.id == p.pid {
			w.block = blockState{}
			w.cpu.Regs[0] = uint64(status)
		}
	}
	p.waiters = nil
	if p.pid == 1 {
		m.stop(StopExit, status)
	}
}

// fault handles a hardware exception: dispatch to the registered guest
// handler if any, otherwise kill the process.
func (m *Machine) fault(t *thread, e *trace.Entry) {
	p := t.proc
	if e.Exc.Kind == "div0" && p.sigHandler != 0 {
		_, ilen, ok := m.prog.At(t.cpu.PC)
		if !ok {
			ilen = 4
		}
		resume := t.cpu.PC + uint64(ilen)
		sp := t.cpu.SP() - 8
		t.cpu.SetSP(sp)
		p.mem.WriteUint(sp, 8, resume) //nolint:errcheck // size 8 is valid
		t.cpu.Regs[1] = 1              // exception kind for the handler
		t.cpu.PC = p.sigHandler
		e.Exc.Handled = true
		e.Exc.HandlerPC = p.sigHandler
		e.Exc.ResumePC = resume
		return
	}
	// Unhandled: kill the process. The caller records the entry.
	if p.pid == 1 {
		m.stop(StopFault, 128)
		return
	}
	m.exitProc(p, 128)
}
