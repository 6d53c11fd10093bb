// Package symexec is the symbolic execution stage of the concolic
// framework: it replays a concrete trace over symbolic state, extracts
// path constraints at symbolic branches, and records typed incidents
// (Es0–Es3) whenever a capability gap forces it to under- or
// over-approximate — the error taxonomy of the paper's Section IV.
//
// Capability knobs model the differences between the studied tools:
// which inputs are declared symbolic (Es0), which instructions lift
// (Es1), which propagation channels are tracked (Es2), and which memory,
// jump and theory constructs can be modeled (Es3).
package symexec

import (
	"fmt"
	"strings"

	"repro/internal/bin"
	"repro/internal/gos"
	"repro/internal/lift"
	"repro/internal/mem"
	"repro/internal/sym"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Stage is a symbolic-reasoning error stage (the paper's Es0..Es3).
type Stage int

// Error stages.
const (
	StageEs0 Stage = iota // symbolic variable declaration
	StageEs1              // instruction tracing / lifting
	StageEs2              // data propagation
	StageEs3              // constraint modeling
)

func (s Stage) String() string { return fmt.Sprintf("Es%d", int(s)) }

// Incident is one recorded reasoning error.
type Incident struct {
	Stage  Stage
	Index  int // trace entry index
	PC     uint64
	Detail string
}

func (i Incident) String() string {
	return fmt.Sprintf("%s @%#x #%d: %s", i.Stage, i.PC, i.Index, i.Detail)
}

// MemModel selects how symbolic memory addresses are handled.
type MemModel int

// Memory models.
const (
	// MemConcrete concretizes every symbolic address (BAP, Triton): Es3.
	MemConcrete MemModel = iota + 1
	// MemOneLevel models one level of symbolic addressing with an ITE
	// window (Angr); a second level incurs Es3.
	MemOneLevel
	// MemFull nests symbolic loads up to the window bound.
	MemFull
)

// JumpMode selects how symbolic jump targets are handled.
type JumpMode int

// Jump modes.
const (
	// JumpNone cannot model symbolic jumps at all: Es3.
	JumpNone JumpMode = iota + 1
	// JumpConcretize pins affine targets to the observed address (and can
	// negate that pin), but rejects table-loaded targets with Es3; the
	// pin is tagged Es2 because solving through it yields wrong inputs.
	JumpConcretize
	// JumpEnum pins the target and lets exploration negate it freely.
	JumpEnum
)

// ExcMode selects how guest hardware exceptions in the trace are treated.
type ExcMode int

// Exception modes.
const (
	// ExcTrace follows the handler like any other code (Pin-style).
	ExcTrace ExcMode = iota + 1
	// ExcEs1 cannot lift handler dispatch: records Es1 and the round's
	// trace is unusable past the fault.
	ExcEs1
	// ExcCrash aborts the whole analysis (emulator fault): outcome E.
	ExcCrash
	// ExcEs2 silently loses the handler's effect: records Es2.
	ExcEs2
)

// SourceMode selects how an environment input source is modeled.
type SourceMode int

// Source modes. The zero value is SourceEnv.
const (
	// SourceEnv leaves the source undeclared: branches on it record Es0.
	SourceEnv SourceMode = iota
	// SourceDeclared makes the source a solvable symbolic variable.
	SourceDeclared
	// SourceSim returns an unconstrained simulation value (P outcomes).
	SourceSim
)

// ExtKind selects how an external (library) function call is analyzed.
type ExtKind int

// External call handling.
const (
	// ExtPrecise traces through the callee (default).
	ExtPrecise ExtKind = iota
	// ExtUnconstrained skips the callee and summarizes its result as a
	// fresh unconstrained symbol.
	ExtUnconstrained
)

// ChanPolicy selects how a kernel data channel propagates symbols.
type ChanPolicy int

// Channel policies.
const (
	// ChanConcrete loses symbolic content (Es2 when it mattered).
	ChanConcrete ChanPolicy = iota + 1
	// ChanShadow propagates symbolic bytes through the kernel object.
	ChanShadow
	// ChanUnconstrained returns fresh unconstrained symbols (syscall
	// simulation, the source of the paper's P outcomes).
	ChanUnconstrained
)

// Spec declares symbolic sources and propagation capabilities.
type Spec struct {
	// ArgvNUL also symbolizes the argv terminator byte, enabling
	// length reasoning (Es0 when absent).
	ArgvNUL bool
	// ArgvPad symbolizes this many extra bytes beyond the seed string
	// (concretely zero), modeling Angr's fixed-maximum-length argv. It
	// lets a single solve lengthen the argument.
	ArgvPad int
	// Time and Pid select how those environment sources are modeled:
	// undeclared (env-plane, Es0 on branches), declared symbolic, or
	// simulated unconstrained (Angr simprocedures, P outcomes).
	Time SourceMode
	Pid  SourceMode
	// Stat and Env select how the stat (file size) and getenv contextual
	// sources are modeled, with the same three-way split as Time/Pid.
	Stat SourceMode
	Env  SourceMode
	// Web declares fetched content as symbolic; otherwise it is
	// env-plane.
	Web bool

	// Files, Pipes, Kv select the channel policies.
	Files ChanPolicy
	Pipes ChanPolicy
	Kv    ChanPolicy
	// Wait selects whether a child's exit status propagates symbolically
	// to the parent's wait return (the exit-status covert channel). Only
	// ChanShadow propagates; any other value loses the data with Es2.
	Wait ChanPolicy

	// TrackThreads follows non-main threads of the root process.
	TrackThreads bool
	// TrackProcs follows forked children.
	TrackProcs bool
}

// EnvInfo carries the benign environment the analysis runs under, used by
// contextual modeling (file existence, syscall semantics).
type EnvInfo struct {
	TimeNow    uint64
	Pid        uint64
	KnownFiles []string
}

// Options configures a symbolic execution pass.
type Options struct {
	Spec Spec
	Mem  MemModel
	Jump JumpMode
	Lift lift.Options
	Exc  ExcMode

	// ContextualFS models open(symbolic path) as a path∈knownFiles
	// constraint; ContextualSys models a symbolic syscall number against
	// the kernel's semantics (time only).
	ContextualFS  bool
	ContextualSys bool
	// ContextualStage is the stage recorded when contextual constructs
	// are NOT modeled; real tools attribute this differently (BAP/Angr:
	// Es2, Triton: Es3).
	ContextualStage Stage

	// ModelDivFault adds the implicit divisor!=0 branch on tainted
	// divisions, making fault paths explorable.
	ModelDivFault bool

	// FloatCrash aborts the whole analysis when a tainted floating-point
	// instruction is executed (Angr-with-libraries emulator behaviour:
	// outcome E), instead of lifting it or failing with Es1.
	FloatCrash bool

	// Externals maps library function symbols to ExtUnconstrained: calls
	// into them are skipped and their return value becomes a fresh
	// unconstrained summary, with an Es2 incident when symbolic state was
	// involved (Angr-NoLib simprocedures for unknown functions).
	Externals map[string]ExtKind

	// MemWindow bounds address enumeration for symbolic loads (bytes on
	// each side of the observed address). 0 = default.
	MemWindow int
	// MaxWindowLoads bounds how many symbolic-address loads one pass may
	// model before further ones concretize with Es3 (resource limits of
	// real constraint builders). 0 = default.
	MaxWindowLoads int

	// MemWrites models stores through symbolic addresses as guarded weak
	// updates over the enumeration window instead of concretizing with
	// Es3. Writes are far more expensive than loads (every cell in the
	// window gains an ITE), so they get their own budget.
	MemWrites bool
	// MaxWindowWrites bounds modeled symbolic-address stores per pass;
	// further ones concretize with Es3. 0 = default.
	MaxWindowWrites int

	Env EnvInfo
}

// DefaultMemWindow is the symbolic-load enumeration radius.
const DefaultMemWindow = 64

// DefaultMaxWindowLoads bounds modeled symbolic-address loads per pass.
const DefaultMaxWindowLoads = 64

// DefaultMaxWindowWrites bounds modeled symbolic-address stores per pass.
const DefaultMaxWindowWrites = 16

// ConstraintKind classifies path constraints.
type ConstraintKind int

// Constraint kinds.
const (
	KindBranch   ConstraintKind = iota + 1 // conditional jump outcome
	KindDivGuard                           // implicit divisor != 0
	KindJump                               // symbolic jump target pin
	KindAssume                             // side condition; never negated
)

// PathConstraint is one constraint that held on the executed path.
type PathConstraint struct {
	Expr  sym.Expr
	Index int
	PC    uint64
	Kind  ConstraintKind
}

// Result is the outcome of one symbolic pass over a trace.
type Result struct {
	Constraints []PathConstraint
	Incidents   []Incident
	// TaintedIdx lists entries that touched symbolic state (the metric
	// behind Figure 3).
	TaintedIdx []int
	// Seed maps every created variable to its concrete value in this run.
	Seed map[string]uint64
	// SimulationUsed reports that unconstrained summaries were introduced
	// (P-outcome evidence).
	SimulationUsed bool
	// Crashed reports an engine abort (outcome E).
	Crashed     bool
	CrashDetail string
}

// MinStage returns the earliest incident stage, or ok=false.
func (r *Result) MinStage() (Stage, bool) {
	if len(r.Incidents) == 0 {
		return 0, false
	}
	min := r.Incidents[0].Stage
	for _, in := range r.Incidents {
		if in.Stage < min {
			min = in.Stage
		}
	}
	return min, true
}

// envPrefix marks undeclared environment-derived variables; constraints
// over them are dropped with Es0. The arena flags every node over one
// (sym.HasEnvVar).
const envPrefix = sym.EnvVarPrefix

// simPrefix marks unconstrained simulation variables; models that bind
// them cannot be realized as inputs (P outcomes).
const simPrefix = "sim!"

// IsEnvVar reports whether a variable is an undeclared environment value.
func IsEnvVar(name string) bool { return strings.HasPrefix(name, envPrefix) }

// IsSimVar reports whether a variable is an unconstrained simulation
// summary.
func IsSimVar(name string) bool { return strings.HasPrefix(name, simPrefix) }

type flagState struct {
	z, s, c sym.Expr // nil when concrete
}

type exec struct {
	opts Options
	img  *bin.Image
	tr   *trace.Trace
	res  *Result

	mainTID, mainPID int

	regs  map[int]*[16]sym.Expr
	flags map[int]*flagState
	smem  map[int]map[uint64]sym.Expr
	conc  map[int]*mem.Memory

	shadow     map[string]map[uint64]sym.Expr
	objTainted map[string]bool

	// pendingFork saves the parent's symbolic registers for the child's
	// lazy state creation.
	pendingFork map[int][16]sym.Expr

	// exitStatus holds each tracked process's symbolic exit status;
	// pendingWait maps a child pid to parent threads blocked in wait on
	// it, whose r0 the kernel patches at wake without a trace entry.
	exitStatus  map[int]sym.Expr
	pendingWait map[int][]int

	seen      map[string]bool // incident dedup
	gapPID    map[int]bool    // reported untracked-process gaps
	gapTID    map[int]bool    // reported untracked-thread gaps
	simSeq    int
	winLoads  int
	winWrites int
	tainted   bool // current entry touched symbolic state

	extAddr map[uint64]string  // external function entry address -> name
	skipExt map[int]*extReturn // per-tid pending external-call skip
}

// extReturn tracks a skipped external call awaiting its return address.
type extReturn struct {
	retAddr  uint64
	fn       string
	symbolic bool
}

// Run executes one symbolic pass over the trace. argvStr carries the
// concrete argument strings matching the regions (argv[0] first).
func Run(img *bin.Image, tr *trace.Trace, argv []gos.Region, argvStr []string, opts Options) *Result {
	if opts.MemWindow <= 0 {
		opts.MemWindow = DefaultMemWindow
	}
	if opts.MaxWindowLoads <= 0 {
		opts.MaxWindowLoads = DefaultMaxWindowLoads
	}
	if opts.MaxWindowWrites <= 0 {
		opts.MaxWindowWrites = DefaultMaxWindowWrites
	}
	if opts.ContextualStage == 0 {
		opts.ContextualStage = StageEs2
	}
	x := &exec{
		opts:        opts,
		img:         img,
		tr:          tr,
		res:         &Result{Seed: make(map[string]uint64)},
		regs:        make(map[int]*[16]sym.Expr),
		flags:       make(map[int]*flagState),
		smem:        make(map[int]map[uint64]sym.Expr),
		conc:        make(map[int]*mem.Memory),
		shadow:      make(map[string]map[uint64]sym.Expr),
		objTainted:  make(map[string]bool),
		pendingFork: make(map[int][16]sym.Expr),
		exitStatus:  make(map[int]sym.Expr),
		pendingWait: make(map[int][]int),
		seen:        make(map[string]bool),
		extAddr:     make(map[uint64]string),
		skipExt:     make(map[int]*extReturn),
		gapPID:      make(map[int]bool),
		gapTID:      make(map[int]bool),
	}
	if tr.Len() == 0 {
		return x.res
	}
	x.mainTID = tr.Entries[0].TID
	x.mainPID = tr.Entries[0].PID
	for _, s := range img.Symbols {
		if opts.Externals[s.Name] == ExtUnconstrained {
			x.extAddr[s.Addr] = s.Name
		}
	}
	prog, err := vm.Load(img)
	if err != nil {
		// The guest cannot run such an image, so no trace comes from it.
		x.crash(err.Error())
		return x.res
	}
	x.initState(prog, argv, argvStr)
	x.walk()
	return x.res
}

// initState builds the initial symbolic and concrete memory for the root
// process: a clone of the program's boot memory (the image sections),
// the argv block, and argv[1]'s symbolic bytes.
func (x *exec) initState(prog *vm.Program, argv []gos.Region, argvStr []string) {
	cm := prog.Memory()
	// Rebuild the loader's argv block: pointer array then strings.
	for i, r := range argv {
		cm.WriteUint(bin.ArgBase+uint64(8*i), 8, r.Addr) //nolint:errcheck // size 8 is valid
		if i < len(argvStr) {
			cm.WriteCString(r.Addr, argvStr[i])
		}
	}
	cm.WriteUint(bin.ArgBase+uint64(8*len(argv)), 8, 0) //nolint:errcheck // size 8 is valid
	x.conc[x.mainPID] = cm
	x.smem[x.mainPID] = make(map[uint64]sym.Expr)

	if len(argv) < 2 {
		return
	}
	// argv[1] bytes become input variables. Strings beyond argv[1] are
	// not used by the benchmark.
	r := argv[1]
	n := r.Len
	if !x.opts.Spec.ArgvNUL {
		n = r.Len - 1
	}
	if x.opts.Spec.ArgvNUL {
		n += x.opts.Spec.ArgvPad
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("argv1[%d]", i)
		v := sym.NewVar(name, 8)
		x.smem[x.mainPID][r.Addr+uint64(i)] = v
		x.res.Seed[name] = uint64(x.concByteAt(r.Addr + uint64(i)))
	}
	if !x.opts.Spec.ArgvNUL && r.Len >= 1 {
		// The terminator is environment-plane: branches on it mean the
		// tool's declaration was insufficient (Es0), as with Triton's
		// fixed-length argv.
		name := envPrefix + fmt.Sprintf("argv1[%d]", r.Len-1)
		x.smem[x.mainPID][r.Addr+uint64(r.Len-1)] = sym.NewVar(name, 8)
		x.res.Seed[name] = 0
	}
}

func (x *exec) concByteAt(addr uint64) byte {
	return x.conc[x.mainPID].LoadByte(addr)
}

func (x *exec) incident(stage Stage, e *trace.Entry, detail string) {
	key := fmt.Sprintf("%d|%#x|%s", stage, e.PC, detail)
	if x.seen[key] {
		return
	}
	x.seen[key] = true
	x.res.Incidents = append(x.res.Incidents, Incident{
		Stage: stage, Index: e.Index, PC: e.PC, Detail: detail,
	})
	x.tainted = true
}

func (x *exec) crash(detail string) {
	if !x.res.Crashed {
		x.res.Crashed = true
		x.res.CrashDetail = detail
	}
}

func (x *exec) regState(tid int) *[16]sym.Expr {
	st, ok := x.regs[tid]
	if !ok {
		st = &[16]sym.Expr{}
		x.regs[tid] = st
	}
	return st
}

func (x *exec) flagState(tid int) *flagState {
	st, ok := x.flags[tid]
	if !ok {
		st = &flagState{}
		x.flags[tid] = st
	}
	return st
}

func (x *exec) symMem(pid int) map[uint64]sym.Expr {
	m, ok := x.smem[pid]
	if !ok {
		m = make(map[uint64]sym.Expr)
		x.smem[pid] = m
	}
	return m
}

func (x *exec) concMem(pid int) *mem.Memory {
	m, ok := x.conc[pid]
	if !ok {
		m = mem.New()
		x.conc[pid] = m
	}
	return m
}

// newVar creates a variable with a seed value.
func (x *exec) newVar(name string, w int, seed uint64) sym.Expr {
	x.res.Seed[name] = seed
	return sym.NewVar(name, w)
}
