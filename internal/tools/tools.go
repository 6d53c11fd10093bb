// Package tools defines the evaluated concolic execution tools as
// capability profiles of the shared engine: BAP, Triton, Angr (with
// loaded libraries), Angr-NoLib, and the full-capability Reference
// configuration used for the extension study.
//
// Every Table II cell is produced by running the profile's engine; the
// handful of cells whose root cause the paper attributes to tool-specific
// bugs (rather than systematic capability gaps) carry a documented
// Override.
package tools

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bombs"
	"repro/internal/core"
	"repro/internal/lift"
	"repro/internal/solver"
	"repro/internal/symexec"
)

// Override records a modeled tool idiosyncrasy for one bomb: the paper's
// observed outcome and why the mechanical capability model differs.
type Override struct {
	Outcome bombs.PaperOutcome
	Note    string
}

// Profile is one evaluated tool.
type Profile struct {
	Caps core.Capabilities
	// Overrides maps bomb name -> modeled idiosyncrasy. Keep this small:
	// every entry is a documented deviation between the systematic
	// capability model and the historical tool's recorded behaviour.
	Overrides map[string]Override
}

// Name returns the profile's display name.
func (p Profile) Name() string { return p.Caps.Name }

// Shared exploration budgets, standing in for the paper's ten-minute
// per-task timeout, scaled to the simulator.
const (
	stdConflicts = 40_000
	stdTimeout   = 2 * time.Second
	stdRounds    = 40
	stdBudget    = 15 * time.Second
)

// BAP models the CMU Binary Analysis Platform: a Pin-based tracer with
// solid multi-thread tracing and exception transparency, but no symbolic
// memory, no symbolic jumps, no floating-point or push/pop lifting, no
// covert-channel tracking, and no input-length growth (its single-path
// concolic mode only re-solves the observed path shape).
func BAP() Profile {
	return Profile{
		Caps: core.Capabilities{
			Name: "BAP",
			Sym: symexec.Options{
				Spec: symexec.Spec{
					ArgvNUL: true, // terminator traced, but see GrowArgv
					Files:   symexec.ChanConcrete,
					Pipes:   symexec.ChanConcrete,
					Kv:      symexec.ChanConcrete,
					// Pin serializes threads into one trace.
					TrackThreads: true,
					TrackProcs:   false, // Pin follows the parent only
				},
				Mem:             symexec.MemConcrete,
				Jump:            symexec.JumpNone,
				Lift:            lift.Options{NoFloat: true, NoPushPop: true},
				Exc:             symexec.ExcTrace, // Pin traces handlers
				ContextualStage: symexec.StageEs2,
				ModelDivFault:   true,
			},
			FP:              solver.FPNone,
			SolverConflicts: stdConflicts,
			SolverTimeout:   stdTimeout,
			MaxRounds:       stdRounds,
			TotalBudget:     stdBudget,
			GrowArgv:        false,
			WebSyscall:      true,
		},
		Overrides: map[string]Override{
			"srand": {Outcome: bombs.Es2,
				Note: "BAP's IL mishandles the PRNG's 64-bit multiply chain and emits wrong seed models (paper: Es2); the capability model yields a solver timeout (E) instead"},
			"aes": {Outcome: bombs.Es2,
				Note: "BAP produced wrong key models on AES (paper: Es2); the capability model attributes the failure to unmodeled S-box addressing (Es3)"},
		},
	}
}

// Triton models the QuarksLab dynamic symbolic executor: SSA lifting with
// good push/pop handling but no floating-point instruction support, a
// fixed-length symbolic argv (no terminator reasoning), single-thread
// traces, no symbolic memory or jumps, and no exception-dispatch tracing.
func Triton() Profile {
	return Profile{
		Caps: core.Capabilities{
			Name: "Triton",
			Sym: symexec.Options{
				Spec: symexec.Spec{
					ArgvNUL: false, // fixed-length symbolic argv: Es0
					Files:   symexec.ChanConcrete,
					Pipes:   symexec.ChanConcrete,
					Kv:      symexec.ChanConcrete,
				},
				Mem:             symexec.MemConcrete,
				Jump:            symexec.JumpNone,
				Lift:            lift.Options{NoFloat: true},
				Exc:             symexec.ExcEs1, // handler instructions untraced
				ContextualStage: symexec.StageEs3,
				ModelDivFault:   true,
			},
			FP:              solver.FPNone,
			SolverConflicts: stdConflicts,
			SolverTimeout:   stdTimeout,
			MaxRounds:       stdRounds,
			TotalBudget:     stdBudget,
			GrowArgv:        false,
			WebSyscall:      true,
		},
		Overrides: map[string]Override{
			"aes": {Outcome: bombs.Es2,
				Note: "Triton produced wrong key models on AES (paper: Es2); the capability model attributes the failure to unmodeled S-box addressing (Es3)"},
		},
	}
}

// Angr models angr with dynamic libraries loaded into SimuVEX: variable
// argv lengths and one-level symbolic memory work, but emulation aborts
// on network syscalls, signal dispatch and symbolic floating-point;
// syscall results are simulated (partial successes), and covert channels
// and child processes are not tracked.
func Angr() Profile {
	return Profile{
		Caps: core.Capabilities{
			Name: "Angr",
			Sym: symexec.Options{
				Spec: symexec.Spec{
					ArgvNUL: true, ArgvPad: 16,
					Pid:   symexec.SourceSim, // simulated getpid: P
					Stat:  symexec.SourceSim, // simulated stat: P
					Env:   symexec.SourceSim, // simulated getenv: P
					Files: symexec.ChanConcrete,
					Pipes: symexec.ChanConcrete,
					Kv:    symexec.ChanUnconstrained, // simulated kernel store: P
				},
				Mem:             symexec.MemOneLevel,
				Jump:            symexec.JumpConcretize,
				Exc:             symexec.ExcCrash,
				ContextualStage: symexec.StageEs2,
				ModelDivFault:   true,
				FloatCrash:      true,
			},
			FP:              solver.FPNone,
			SolverConflicts: stdConflicts,
			SolverTimeout:   stdTimeout,
			MaxRounds:       stdRounds,
			TotalBudget:     stdBudget,
			GrowArgv:        true,
			WebSyscall:      false, // socket emulation crashes: E
		},
		Overrides: map[string]Override{
			"file": {Outcome: bombs.E,
				Note: "angr with loaded libraries crashed emulating the buffered file round-trip (paper: E); the capability model degrades to plain propagation loss (Es2)"},
			"aes": {Outcome: bombs.Es2,
				Note: "angr produced wrong key models on AES (paper: Es2); the capability model fails at nested S-box addressing (Es3) or exhausts the solver (E)"},
		},
	}
}

// AngrNoLib models angr without loading dynamic libraries: known libc
// functions run as precise simprocedures (equivalent to tracing our guest
// libc), unknown ones (sin, pow, srand, rand, sha1, aes) return
// unconstrained summaries; fork and pipes are modeled, exceptions and
// divide faults are not, and the solver has no floating-point theory.
func AngrNoLib() Profile {
	return Profile{
		Caps: core.Capabilities{
			Name: "Angr-NoLib",
			Sym: symexec.Options{
				Spec: symexec.Spec{
					ArgvNUL: true, ArgvPad: 16,
					Pid:   symexec.SourceSim,
					Stat:  symexec.SourceSim,
					Env:   symexec.SourceSim,
					Files: symexec.ChanConcrete,
					Pipes: symexec.ChanShadow, // SimFile models pipes precisely
					Kv:    symexec.ChanUnconstrained,
					// Fork's simprocedure explores the child, but the exit
					// status is not propagated back through waitpid.
					TrackProcs: true,
				},
				Mem:             symexec.MemOneLevel,
				Jump:            symexec.JumpConcretize,
				Exc:             symexec.ExcEs2,
				ContextualStage: symexec.StageEs2,
				ModelDivFault:   false, // fault paths invisible: Es2
				Externals: map[string]symexec.ExtKind{
					"fsin":            symexec.ExtUnconstrained,
					"fpowi":           symexec.ExtUnconstrained,
					"srand":           symexec.ExtUnconstrained,
					"rand":            symexec.ExtUnconstrained,
					"sha1":            symexec.ExtUnconstrained,
					"aes128_encrypt":  symexec.ExtUnconstrained,
					"sha_store_be32":  symexec.ExtUnconstrained,
					"aes_subbytes":    symexec.ExtUnconstrained,
					"aes_shiftrows":   symexec.ExtUnconstrained,
					"aes_mixcolumns":  symexec.ExtUnconstrained,
					"aes_xtime":       symexec.ExtUnconstrained,
					"aes_addroundkey": symexec.ExtUnconstrained,
				},
			},
			FP:              solver.FPNone, // FP constraints: Es3
			SolverConflicts: stdConflicts,
			SolverTimeout:   stdTimeout,
			MaxRounds:       stdRounds,
			TotalBudget:     stdBudget,
			GrowArgv:        true,
			WebSyscall:      false,
		},
	}
}

// Reference is the full-capability engine: every source declared, every
// channel shadowed, full symbolic memory and jump enumeration, contextual
// modeling, fault branches, and the stochastic FP solver. It is the
// extension column showing how far the framework's capabilities reach.
func Reference() Profile {
	return Profile{
		Caps: core.Capabilities{
			Name: "Reference",
			Sym: symexec.Options{
				Spec: symexec.Spec{
					ArgvNUL: true, ArgvPad: 16,
					Time:  symexec.SourceDeclared,
					Pid:   symexec.SourceDeclared,
					Stat:  symexec.SourceDeclared,
					Env:   symexec.SourceDeclared,
					Web:   true,
					Files: symexec.ChanShadow, Pipes: symexec.ChanShadow,
					Kv:           symexec.ChanShadow,
					Wait:         symexec.ChanShadow, // exit-status covert channel
					TrackThreads: true, TrackProcs: true,
				},
				Mem:           symexec.MemFull,
				Jump:          symexec.JumpEnum,
				Exc:           symexec.ExcTrace,
				ContextualFS:  true,
				ContextualSys: true,
				ModelDivFault: true,
				MemWrites:     true, // weak-update symbolic stores
			},
			// Iterative input lengthening is a deep chain; DFS reaches the
			// required length fast where breadth-first spreads the budget.
			Search:          core.SearchDFS,
			FP:              solver.FPSearch,
			FPIterations:    200_000,
			SolverConflicts: stdConflicts,
			SolverTimeout:   stdTimeout,
			MaxRounds:       250,
			TotalBudget:     120 * time.Second,
			GrowArgv:        true,
			WebSyscall:      true,
		},
	}
}

// TableII returns the four profiles of the paper's Table II, in column
// order.
func TableII() []Profile {
	return []Profile{BAP(), Triton(), Angr(), AngrNoLib()}
}

// TableIIExtended returns the five columns of Table II-extended: the four
// paper profiles plus the reference engine, which is a first-class column
// there (the extended corpus has no paper row to compare against, so the
// reference serves as the capability ceiling).
func TableIIExtended() []Profile {
	return []Profile{BAP(), Triton(), Angr(), AngrNoLib(), Reference()}
}

// Names lists every selectable profile name, in Table II order plus the
// reference engine.
func Names() []string {
	return []string{"bap", "triton", "angr", "angr-nolib", "reference"}
}

// ByName returns the profile selected by its CLI/service name.
func ByName(name string) (Profile, bool) {
	switch name {
	case "bap":
		return BAP(), true
	case "triton":
		return Triton(), true
	case "angr":
		return Angr(), true
	case "angr-nolib":
		return AngrNoLib(), true
	case "reference":
		return Reference(), true
	}
	return Profile{}, false
}

// Lookup is ByName with the error every frontend reports for a name it
// does not know.
func Lookup(name string) (Profile, error) {
	if p, ok := ByName(name); ok {
		return p, nil
	}
	return Profile{}, fmt.Errorf("unknown tool %q (choose from %s)", name, strings.Join(Names(), ", "))
}

// FastBudgets returns a copy of the profile with sharply reduced solver
// and exploration budgets, for benchmarks and smoke tests. Outcomes that
// depend on budget exhaustion (E) are unaffected in direction — they
// exhaust sooner — but cells requiring deep exploration may degrade.
func FastBudgets(p Profile) Profile {
	p.Caps.SolverConflicts = 8_000
	p.Caps.SolverTimeout = 300 * time.Millisecond
	p.Caps.TotalBudget = 4 * time.Second
	p.Caps.MaxRounds = 12
	p.Caps.FPIterations = 20_000
	return p
}
