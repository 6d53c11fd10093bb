package symexec

import (
	"fmt"
	"strings"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/lift"
	"repro/internal/sym"
	"repro/internal/trace"
)

// walk replays the trace entry by entry.
func (x *exec) walk() {
	for i := range x.tr.Entries {
		if x.res.Crashed {
			return
		}
		e := &x.tr.Entries[i]
		x.tainted = false

		// Ground-truth concrete replay happens regardless of tracking, so
		// later window enumeration sees real memory.
		x.replayConcrete(e)

		if !x.tracked(e) {
			x.checkGap(e)
			continue
		}
		x.adoptFork(e)

		if x.inExternalSkip(e) {
			continue
		}

		if e.Exc != nil {
			x.handleException(e)
			if x.res.Crashed {
				return
			}
			x.finishEntry(e)
			continue
		}
		if e.Sys != nil {
			x.handleSyscall(e)
			x.finishEntry(e)
			continue
		}

		x.handleInstr(e)
		x.finishEntry(e)
	}
}

func (x *exec) finishEntry(e *trace.Entry) {
	if x.tainted {
		e.Tainted = true
		x.res.TaintedIdx = append(x.res.TaintedIdx, e.Index)
	}
}

// adoptFork installs the saved parent register state for a forked
// child's first entry.
func (x *exec) adoptFork(e *trace.Entry) {
	saved, ok := x.pendingFork[e.PID]
	if !ok {
		return
	}
	if _, exists := x.regs[e.TID]; !exists {
		st := saved
		x.regs[e.TID] = &st
	}
	delete(x.pendingFork, e.PID)
}

// inExternalSkip handles unconstrained external summaries: it starts a
// skip at calls into summarized functions, swallows the callee's entries,
// and installs the fresh return symbol at the return address.
func (x *exec) inExternalSkip(e *trace.Entry) bool {
	if pending := x.skipExt[e.TID]; pending != nil {
		if e.PC != pending.retAddr {
			return true // still inside the summarized callee
		}
		delete(x.skipExt, e.TID)
		rs := x.regState(e.TID)
		if pending.symbolic {
			x.incident(StageEs2, e,
				"external function "+pending.fn+" summarized; symbolic effects replaced by unconstrained value")
			name := fmt.Sprintf("%sext:%s#%d", simPrefix, pending.fn, x.simSeq)
			x.simSeq++
			x.res.SimulationUsed = true
			rs[isa.R0] = x.newVar(name, 64, 0)
			x.tainted = true
		} else {
			rs[isa.R0] = nil
		}
		// Fall through: the entry at the return address executes normally.
		return false
	}
	if e.Instr.Op != isa.OpCall {
		return false
	}
	fn, ok := x.extAddr[e.NextPC]
	if !ok {
		return false
	}
	x.skipExt[e.TID] = &extReturn{
		retAddr:  e.PC + uint64(e.Instr.EncodedLen()),
		fn:       fn,
		symbolic: x.argsSymbolic(e),
	}
	return true
}

// argsSymbolic heuristically decides whether an external call receives
// symbolic data: a symbolic argument register, or symbolic memory near a
// pointer-looking argument.
func (x *exec) argsSymbolic(e *trace.Entry) bool {
	rs := x.regState(e.TID)
	sm := x.symMem(e.PID)
	for r := isa.R1; r <= isa.R3; r++ {
		if rs[r] != nil {
			return true
		}
	}
	// Probe plausible pointer arguments for symbolic bytes. Without the
	// trace recording every register we cannot resolve pointers exactly,
	// so scan the process's symbolic memory footprint instead: any live
	// symbolic bytes mean the callee may consume them.
	return len(sm) > 0
}

// tracked reports whether this entry's thread/process is modeled.
func (x *exec) tracked(e *trace.Entry) bool {
	if e.PID != x.mainPID && !x.opts.Spec.TrackProcs {
		return false
	}
	if e.PID == x.mainPID && e.TID != x.mainTID && !x.opts.Spec.TrackThreads {
		return false
	}
	return true
}

// checkGap records an Es2 incident when an untracked thread or process
// touches symbolic state the engine knows about.
func (x *exec) checkGap(e *trace.Entry) {
	touches := false
	if e.Instr.Op == isa.OpLd || e.Instr.Op == isa.OpSt {
		sm := x.symMem(e.PID)
		for i := uint64(0); i < uint64(e.Instr.Size); i++ {
			if sm[e.Addr+i] != nil {
				touches = true
				break
			}
		}
	}
	if !touches {
		return
	}
	if e.PID != x.mainPID {
		if !x.gapPID[e.PID] {
			x.gapPID[e.PID] = true
			x.incident(StageEs2, e, "symbolic data manipulated in untraced process")
		}
		return
	}
	if !x.gapTID[e.TID] {
		x.gapTID[e.TID] = true
		x.incident(StageEs2, e, "symbolic data manipulated in untraced thread")
	}
}

// replayConcrete applies the entry's concrete memory effects to the
// per-process replica.
func (x *exec) replayConcrete(e *trace.Entry) {
	cm := x.concMem(e.PID)
	switch e.Instr.Op {
	case isa.OpSt:
		cm.WriteUint(e.Addr, e.Instr.Size, e.MemVal) //nolint:errcheck // sizes validated
	case isa.OpPush, isa.OpCall:
		cm.WriteUint(e.Addr, 8, e.MemVal) //nolint:errcheck // size 8 is valid
	}
	if ev := e.Sys; ev != nil {
		switch ev.Num {
		case trace.SysRead, trace.SysWebGet, trace.SysKvGet:
			if len(ev.Data) > 0 {
				cm.Write(ev.Addr, ev.Data)
			}
		case trace.SysPipe:
			rfd := ev.NewID & 0xffffffff
			wfd := ev.NewID >> 32
			cm.WriteUint(ev.Addr, 8, rfd)   //nolint:errcheck // size 8 is valid
			cm.WriteUint(ev.Addr+8, 8, wfd) //nolint:errcheck // size 8 is valid
		case trace.SysFork:
			child := int(ev.NewID)
			if _, ok := x.conc[child]; !ok {
				x.conc[child] = cm.Clone()
			}
		}
	}
}

// ── instruction handling ─────────────────────────────────────────────

func (x *exec) handleInstr(e *trace.Entry) {
	if x.opts.FloatCrash && e.Instr.Op.IsFloat() && x.instrTouchesSymbolic(e) {
		x.crash("emulator abort: symbolic floating-point operation unsupported")
		return
	}
	ilen := e.Instr.EncodedLen()
	stmts, err := lift.Cached(e.Instr, e.PC+uint64(ilen), x.opts.Lift)
	if err != nil {
		// Unsupported instruction: only an error when symbolic data is
		// involved; either way the symbolic effect is lost.
		if x.instrTouchesSymbolic(e) {
			x.incident(StageEs1, e, err.Error())
		}
		x.clearEffects(e)
		return
	}
	for _, st := range stmts {
		x.evalStmt(st, e)
	}
}

// instrTouchesSymbolic reports whether an instruction's operands carry
// symbolic state.
func (x *exec) instrTouchesSymbolic(e *trace.Entry) bool {
	rs := x.regState(e.TID)
	switch e.Instr.Mode {
	case isa.ModeR, isa.ModeRI, isa.ModeRM:
		if rs[e.Instr.R1] != nil {
			return true
		}
	case isa.ModeRR, isa.ModeMR:
		if rs[e.Instr.R1] != nil || rs[e.Instr.R2] != nil {
			return true
		}
	}
	if e.Instr.Op == isa.OpLd || e.Instr.Op == isa.OpPop {
		sm := x.symMem(e.PID)
		for i := uint64(0); i < uint64(e.Instr.Size); i++ {
			if sm[e.Addr+i] != nil {
				return true
			}
		}
	}
	return false
}

// clearEffects conservatively drops the symbolic state an unlifted
// instruction would have written.
func (x *exec) clearEffects(e *trace.Entry) {
	rs := x.regState(e.TID)
	in := e.Instr
	switch in.Op {
	case isa.OpPop, isa.OpLd, isa.OpMov, isa.OpAdd, isa.OpSub, isa.OpMul,
		isa.OpDiv, isa.OpMod, isa.OpSdiv, isa.OpSmod, isa.OpNeg,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpNot,
		isa.OpShl, isa.OpShr, isa.OpSar,
		isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFdiv, isa.OpI2f, isa.OpF2i:
		rs[in.R1] = nil
	case isa.OpSt, isa.OpPush:
		sm := x.symMem(e.PID)
		for i := uint64(0); i < uint64(in.Size); i++ {
			delete(sm, e.Addr+i)
		}
	case isa.OpCmp, isa.OpTest, isa.OpFcmp:
		fs := x.flagState(e.TID)
		fs.z, fs.s, fs.c = nil, nil, nil
	}
}

func (x *exec) evalStmt(st ir.Stmt, e *trace.Entry) {
	switch t := st.(type) {
	case ir.SetReg:
		v := x.evalExpr(t.E, e)
		rs := x.regState(e.TID)
		if isConst(v) {
			rs[t.R] = nil
		} else {
			rs[t.R] = v
			x.tainted = true
		}

	case ir.SetFlags:
		fs := x.flagState(e.TID)
		z := x.evalExpr(t.Z, e)
		s := x.evalExpr(t.S, e)
		c := x.evalExpr(t.C, e)
		fs.z, fs.s, fs.c = symOrNil(z), symOrNil(s), symOrNil(c)
		if fs.z != nil || fs.s != nil || fs.c != nil {
			x.tainted = true
		}

	case ir.Store:
		x.doStore(t, e)

	case ir.CondBranch:
		x.doBranch(t, e)

	case ir.IndirectJump:
		x.doIndirectJump(t, e)

	case ir.DivGuard:
		d := x.evalExpr(t.Divisor, e)
		if isConst(d) {
			return
		}
		x.tainted = true
		if x.opts.ModelDivFault {
			c := sym.NewBin(sym.OpNe, d, sym.NewConst(0, d.Width()))
			x.addConstraint(c, e, KindDivGuard)
		} else {
			x.incident(StageEs2, e, "symbolic divisor fault path not modeled")
		}
	}
}

func isConst(e sym.Expr) bool {
	_, ok := e.(*sym.Const)
	return ok
}

func symOrNil(e sym.Expr) sym.Expr {
	if isConst(e) {
		return nil
	}
	return e
}

// evalExpr resolves an IR expression to a sym expression; concrete values
// become constants.
func (x *exec) evalExpr(ie ir.Expr, e *trace.Entry) sym.Expr {
	switch t := ie.(type) {
	case ir.Const:
		return sym.NewConst(t.V, t.W)

	case ir.Reg:
		rs := x.regState(e.TID)
		if v := rs[t.R]; v != nil {
			x.tainted = true
			return v
		}
		return sym.NewConst(x.concReg(t.R, e), 64)

	case ir.Flag:
		fs := x.flagState(e.TID)
		var v sym.Expr
		switch t.F {
		case ir.FlagZ:
			v = fs.z
		case ir.FlagS:
			v = fs.s
		case ir.FlagC:
			v = fs.c
		}
		if v != nil {
			x.tainted = true
			return v
		}
		// Concrete flags are reconstructed from the branch outcome by the
		// caller; a concrete flag in an expression context means the whole
		// condition is concrete — value irrelevant, branch not symbolic.
		return sym.NewConst(0, 1)

	case ir.Load:
		return x.doLoad(t.M, e)

	case ir.Bin:
		a := x.evalExpr(t.A, e)
		b := x.evalExpr(t.B, e)
		return sym.NewBin(t.Op, a, b)

	case ir.Un:
		a := x.evalExpr(t.A, e)
		switch t.Op {
		case sym.OpNot:
			return sym.NewNot(a)
		case sym.OpNeg:
			return sym.NewNeg(a)
		case sym.OpBoolNot:
			return sym.NewBoolNot(a)
		case sym.OpZExt:
			return sym.NewZExt(a, t.Arg)
		case sym.OpSExt:
			return sym.NewSExt(a, t.Arg)
		case sym.OpExtract:
			return sym.NewExtract(a, t.Arg, t.Arg2)
		case sym.OpI2F:
			return sym.NewI2F(a)
		case sym.OpF2I:
			return sym.NewF2I(a)
		}
	}
	return sym.NewConst(0, 64)
}

// concReg returns the concrete value of a register at this entry. Only
// the instruction's operand registers are recorded in the trace; the
// stack pointer is derived from the effective address.
func (x *exec) concReg(r isa.Reg, e *trace.Entry) uint64 {
	in := e.Instr
	switch {
	case r == in.R1 && in.Mode != isa.ModeNone && in.Mode != isa.ModeI:
		return e.V1
	case r == in.R2 && (in.Mode == isa.ModeRR || in.Mode == isa.ModeMR || in.Mode == isa.ModeRM):
		return e.V2
	case r == isa.SP:
		switch in.Op {
		case isa.OpPush, isa.OpCall:
			return e.Addr + 8
		case isa.OpPop, isa.OpRet:
			return e.Addr
		}
	}
	return 0
}

// ── memory ───────────────────────────────────────────────────────────

// loadConcrete assembles the value at the traced address, mixing symbolic
// bytes with the concrete loaded value.
func (x *exec) loadConcrete(e *trace.Entry, addr uint64, size uint8) sym.Expr {
	sm := x.symMem(e.PID)
	anySym := false
	for i := uint64(0); i < uint64(size); i++ {
		if sm[addr+i] != nil {
			anySym = true
			break
		}
	}
	if !anySym {
		return sym.NewConst(e.MemVal, int(size)*8)
	}
	x.tainted = true
	bytes := make([]sym.Expr, size)
	for i := uint64(0); i < uint64(size); i++ {
		if b := sm[addr+i]; b != nil {
			bytes[i] = b
		} else {
			bytes[i] = sym.NewConst(e.MemVal>>(8*i), 8)
		}
	}
	return sym.FromBytes(bytes)
}

// loadAt assembles the value at an arbitrary address from symbolic memory
// and the concrete replica (used for window enumeration).
func (x *exec) loadAt(pid int, addr uint64, size uint8) sym.Expr {
	sm := x.symMem(pid)
	cm := x.concMem(pid)
	bytes := make([]sym.Expr, size)
	for i := uint64(0); i < uint64(size); i++ {
		if b := sm[addr+i]; b != nil {
			bytes[i] = b
		} else {
			bytes[i] = sym.NewConst(uint64(cm.LoadByte(addr+i)), 8)
		}
	}
	return sym.FromBytes(bytes)
}

func (x *exec) doLoad(m ir.Mem, e *trace.Entry) sym.Expr {
	rs := x.regState(e.TID)
	base := rs[m.Base]
	if base == nil {
		return x.loadConcrete(e, e.Addr, m.Size)
	}
	// Symbolic address.
	x.tainted = true
	addrExpr := sym.NewBin(sym.OpAdd, base, sym.NewConst(uint64(m.Off), 64))
	if x.winLoads >= x.opts.MaxWindowLoads {
		x.incident(StageEs3, e, "symbolic memory model overflow: address concretized")
		return x.loadConcrete(e, e.Addr, m.Size)
	}
	switch x.opts.Mem {
	case MemConcrete:
		x.incident(StageEs3, e, "symbolic memory address concretized")
		return x.loadConcrete(e, e.Addr, m.Size)
	case MemOneLevel:
		// A window load yields an ITE tree; an address derived from one
		// is second-level symbolic addressing.
		if sym.HasITE(addrExpr) {
			x.incident(StageEs3, e, "two-level symbolic memory addressing")
			return x.loadConcrete(e, e.Addr, m.Size)
		}
	}
	return x.windowLoad(addrExpr, e, m.Size)
}

// windowLoad builds an ITE chain over addresses near the observed one and
// an assume constraint keeping the solver inside the window.
func (x *exec) windowLoad(addrExpr sym.Expr, e *trace.Entry, size uint8) sym.Expr {
	x.winLoads++
	w := uint64(x.opts.MemWindow)
	lo := e.Addr - w
	hi := e.Addr + w
	result := x.loadAt(e.PID, e.Addr, size) // default: observed address
	for a := lo; a <= hi; a++ {
		if a == e.Addr {
			continue
		}
		cond := sym.NewBin(sym.OpEq, addrExpr, sym.NewConst(a, 64))
		result = sym.NewITE(cond, x.loadAt(e.PID, a, size), result)
	}
	x.addConstraint(sym.NewBin(sym.OpUle, sym.NewConst(lo, 64), addrExpr), e, KindAssume)
	x.addConstraint(sym.NewBin(sym.OpUle, addrExpr, sym.NewConst(hi, 64)), e, KindAssume)
	return result
}

func (x *exec) doStore(t ir.Store, e *trace.Entry) {
	rs := x.regState(e.TID)
	if base := rs[t.M.Base]; base != nil {
		x.tainted = true
		switch {
		case !x.opts.MemWrites:
			x.incident(StageEs3, e, "symbolic store address concretized")
		case x.winWrites >= x.opts.MaxWindowWrites:
			x.incident(StageEs3, e, "symbolic memory model overflow: store address concretized")
		default:
			addrExpr := sym.NewBin(sym.OpAdd, base, sym.NewConst(uint64(t.M.Off), 64))
			x.windowStore(addrExpr, x.evalExpr(t.E, e), t.M.Size, e)
			return
		}
	}
	v := x.evalExpr(t.E, e)
	sm := x.symMem(e.PID)
	if isConst(v) {
		for i := uint64(0); i < uint64(t.M.Size); i++ {
			delete(sm, e.Addr+i)
		}
		return
	}
	x.tainted = true
	for i := uint64(0); i < uint64(t.M.Size); i++ {
		sm[e.Addr+i] = sym.NewExtract(v, int(i)*8+7, int(i)*8)
	}
}

// windowStore models a store through a symbolic address as a weak update:
// every byte in the enumeration window becomes ITE(addr==a, new, old),
// mirroring windowLoad's ITE chain on the read side. The assume
// constraints keep the solver inside the window.
func (x *exec) windowStore(addrExpr, v sym.Expr, size uint8, e *trace.Entry) {
	x.winWrites++
	w := uint64(x.opts.MemWindow)
	lo := e.Addr - w
	hi := e.Addr + w
	sm := x.symMem(e.PID)
	readByte := func(a uint64) sym.Expr {
		if b := sm[a]; b != nil {
			return b
		}
		return sym.NewConst(uint64(x.concMem(e.PID).LoadByte(a)), 8)
	}
	for a, img := range mergeStoreBytes(addrExpr, lo, hi, v, size, readByte) {
		sm[a] = img
	}
	x.addConstraint(sym.NewBin(sym.OpUle, sym.NewConst(lo, 64), addrExpr), e, KindAssume)
	x.addConstraint(sym.NewBin(sym.OpUle, addrExpr, sym.NewConst(hi, 64)), e, KindAssume)
}

// mergeStoreBytes computes the post-store byte image for a symbolic-address
// store of v (size bytes) whose base address ranges over [lo, hi]. readByte
// supplies the pre-store image. Pure so the fuzz harness can check it
// against a concrete reference memory.
func mergeStoreBytes(addrExpr sym.Expr, lo, hi uint64, v sym.Expr, size uint8, readByte func(uint64) sym.Expr) map[uint64]sym.Expr {
	vb := make([]sym.Expr, size)
	for i := range vb {
		vb[i] = sym.NewExtract(v, i*8+7, i*8)
	}
	out := make(map[uint64]sym.Expr)
	cellAt := func(a uint64) sym.Expr {
		if img, ok := out[a]; ok {
			return img
		}
		return readByte(a)
	}
	for a := lo; a <= hi; a++ {
		cond := sym.NewBin(sym.OpEq, addrExpr, sym.NewConst(a, 64))
		for i := uint64(0); i < uint64(size); i++ {
			out[a+i] = sym.NewITE(cond, vb[i], cellAt(a+i))
		}
	}
	return out
}

// ── control flow ─────────────────────────────────────────────────────

func (x *exec) doBranch(t ir.CondBranch, e *trace.Entry) {
	fs := x.flagState(e.TID)
	if fs.z == nil && fs.s == nil && fs.c == nil {
		return // concrete condition
	}
	cond := x.condWithConcreteFlags(t.Cond, e)
	if isConst(cond) {
		return
	}
	x.tainted = true
	if sym.HasEnvVar(cond) {
		x.incident(StageEs0, e, "branch depends on undeclared environment input: "+envVarList(cond))
		return
	}
	c := cond
	if !e.Taken {
		c = sym.NewBoolNot(cond)
	}
	x.addConstraint(c, e, KindBranch)
}

// condWithConcreteFlags evaluates the jump condition, substituting
// concrete flags with their actual values reconstructed from the seed.
func (x *exec) condWithConcreteFlags(ce ir.Expr, e *trace.Entry) sym.Expr {
	fs := x.flagState(e.TID)
	var eval func(ir.Expr) sym.Expr
	eval = func(ie ir.Expr) sym.Expr {
		switch t := ie.(type) {
		case ir.Flag:
			var v sym.Expr
			switch t.F {
			case ir.FlagZ:
				v = fs.z
			case ir.FlagS:
				v = fs.s
			case ir.FlagC:
				v = fs.c
			}
			if v != nil {
				return v
			}
			// Flag is concrete but its value was not recorded; it can only
			// matter when mixed with symbolic flags (e.g. jle with
			// symbolic ZF, concrete SF). Reconstruct from the seed: the
			// symbolic expressions evaluate to the concrete run's values.
			return sym.NewConst(0, 1)
		case ir.Bin:
			return sym.NewBin(t.Op, eval(t.A), eval(t.B))
		case ir.Un:
			if t.Op == sym.OpBoolNot {
				return sym.NewBoolNot(eval(t.A))
			}
		}
		return sym.NewConst(0, 1)
	}
	return eval(ce)
}

func (x *exec) doIndirectJump(t ir.IndirectJump, e *trace.Entry) {
	target := x.evalExpr(t.Target, e)
	if isConst(target) {
		return
	}
	x.tainted = true
	switch x.opts.Jump {
	case JumpNone:
		x.incident(StageEs3, e, "symbolic jump target not modeled")
		return
	case JumpConcretize:
		if sym.HasITE(target) {
			x.incident(StageEs3, e, "symbolic jump through address table not modeled")
			return
		}
		// The pin is an assumption, not an explorable branch: the tool
		// follows only the observed target and its generated inputs for
		// other paths are wrong (Es2).
		x.incident(StageEs2, e, "symbolic jump target concretized to observed address")
		x.addConstraint(sym.NewBin(sym.OpEq, target, sym.NewConst(e.NextPC, 64)), e, KindAssume)
	case JumpEnum:
		x.addConstraint(sym.NewBin(sym.OpEq, target, sym.NewConst(e.NextPC, 64)), e, KindJump)
	}
}

func (x *exec) addConstraint(c sym.Expr, e *trace.Entry, kind ConstraintKind) {
	if isConst(c) {
		return
	}
	x.tainted = true
	x.res.Constraints = append(x.res.Constraints, PathConstraint{
		Expr: c, Index: e.Index, PC: e.PC, Kind: kind,
	})
}

// ── exceptions ───────────────────────────────────────────────────────

func (x *exec) handleException(e *trace.Entry) {
	switch x.opts.Exc {
	case ExcTrace:
		// Handler dispatch behaves like a call; nothing symbolic happens.
	case ExcEs1:
		x.incident(StageEs1, e, "exception handler instructions cannot be traced")
	case ExcCrash:
		x.crash(fmt.Sprintf("emulator fault: %s exception unsupported", e.Exc.Kind))
	case ExcEs2:
		x.incident(StageEs2, e, "exception handler effect on symbolic state lost")
	}
}

// ── system calls ─────────────────────────────────────────────────────

func (x *exec) handleSyscall(e *trace.Entry) {
	ev := e.Sys
	rs := x.regState(e.TID)

	// A symbolic syscall number is the contextual-symbolic-value case.
	if numExpr := rs[isa.R0]; numExpr != nil {
		x.tainted = true
		if x.opts.ContextualSys {
			// Model the time syscall's semantics; other numbers keep the
			// observed result.
			ret := sym.NewITE(
				sym.NewBin(sym.OpEq, numExpr, sym.NewConst(uint64(trace.SysTime), 64)),
				sym.NewConst(x.opts.Env.TimeNow, 64),
				sym.NewConst(ev.Ret, 64),
			)
			rs[isa.R0] = symOrNil(ret)
			return
		}
		x.incident(x.opts.ContextualStage, e, "symbolic system call number not modeled")
		rs[isa.R0] = nil
		return
	}

	// Result is concrete unless a handler below overrides it.
	rs[isa.R0] = nil

	switch ev.Num {
	case trace.SysTime:
		rs[isa.R0] = x.sourceVar("time", x.opts.Spec.Time, ev.Ret)
		x.tainted = true

	case trace.SysGetpid:
		rs[isa.R0] = x.sourceVar("pid", x.opts.Spec.Pid, ev.Ret)
		x.tainted = true

	case trace.SysStat:
		rs[isa.R0] = x.sourceVar("filesize:"+ev.Path, x.opts.Spec.Stat, ev.Ret)
		x.tainted = true

	case trace.SysGetenv:
		x.handleGetenv(e, ev)

	case trace.SysWebGet:
		x.handleWebGet(e, ev)

	case trace.SysOpen:
		x.handleOpen(e, ev)

	case trace.SysRead, trace.SysKvGet:
		x.handleChannelRead(e, ev)

	case trace.SysWrite, trace.SysKvPut:
		x.handleChannelWrite(e, ev)

	case trace.SysFork:
		x.handleFork(e, ev)

	case trace.SysExit:
		x.handleExit(e, rs)

	case trace.SysWait:
		x.handleWait(e, ev)

	case trace.SysUnlink:
		// Path could be symbolic; the benchmark does not exercise it.
	}
}

// sourceVar creates the variable for an environment source according to
// its mode.
func (x *exec) sourceVar(name string, mode SourceMode, seed uint64) sym.Expr {
	switch mode {
	case SourceDeclared:
		return x.newVar(name, 64, seed)
	case SourceSim:
		x.res.SimulationUsed = true
		v := x.newVar(fmt.Sprintf("%ssys:%s#%d", simPrefix, name, x.simSeq), 64, seed)
		x.simSeq++
		return v
	default:
		return x.newVar(envPrefix+name, 64, seed)
	}
}

func (x *exec) channelPolicy(obj string) (ChanPolicy, bool) {
	switch {
	case strings.HasPrefix(obj, "pipe:"):
		return x.opts.Spec.Pipes, true
	case strings.HasPrefix(obj, "kv:"):
		return x.opts.Spec.Kv, true
	case obj == "stdin" || obj == "stdout" || strings.HasPrefix(obj, "web:") || obj == "":
		return ChanConcrete, false
	default: // file path
		return x.opts.Spec.Files, true
	}
}

func (x *exec) handleChannelWrite(e *trace.Entry, ev *trace.SysEvent) {
	policy, isChan := x.channelPolicy(ev.Obj)
	if !isChan {
		return
	}
	sm := x.symMem(e.PID)
	anySym := false
	for i := range ev.Data {
		if sm[ev.Addr+uint64(i)] != nil {
			anySym = true
			break
		}
	}
	if !anySym {
		return
	}
	x.tainted = true
	x.objTainted[ev.Obj] = true
	if policy != ChanShadow {
		return // loss is reported at the read that misses the data
	}
	sh := x.shadow[ev.Obj]
	if sh == nil {
		sh = make(map[uint64]sym.Expr)
		x.shadow[ev.Obj] = sh
	}
	for i := range ev.Data {
		if b := sm[ev.Addr+uint64(i)]; b != nil {
			sh[ev.Off+uint64(i)] = b
		} else {
			delete(sh, ev.Off+uint64(i))
		}
	}
}

func (x *exec) handleChannelRead(e *trace.Entry, ev *trace.SysEvent) {
	policy, isChan := x.channelPolicy(ev.Obj)
	if !isChan || len(ev.Data) == 0 {
		// Note: a failed kv_get (ret -1) still depends on prior puts; the
		// benchmark always reads back successfully.
		return
	}
	sm := x.symMem(e.PID)
	switch policy {
	case ChanShadow:
		sh := x.shadow[ev.Obj]
		for i := range ev.Data {
			if b := sh[ev.Off+uint64(i)]; b != nil {
				sm[ev.Addr+uint64(i)] = b
				x.tainted = true
			} else {
				delete(sm, ev.Addr+uint64(i))
			}
		}
	case ChanUnconstrained:
		x.res.SimulationUsed = true
		x.tainted = true
		for i := range ev.Data {
			name := fmt.Sprintf("%s%s[%d]#%d", simPrefix, ev.Obj, ev.Off+uint64(i), x.simSeq)
			sm[ev.Addr+uint64(i)] = x.newVar(name, 8, uint64(ev.Data[i]))
		}
		x.simSeq++
	case ChanConcrete:
		for i := range ev.Data {
			delete(sm, ev.Addr+uint64(i))
		}
		if x.objTainted[ev.Obj] {
			x.incident(StageEs2, e, "covert propagation through "+channelKind(ev.Obj)+" lost")
		}
	}
}

// envVarList names the undeclared environment variables in an expression
// for incident details (classification distinguishes terminator-byte
// incidents from genuine environment sources).
func envVarList(e sym.Expr) string {
	var names []string
	for _, n := range sym.Vars(e) {
		if IsEnvVar(n) {
			names = append(names, n)
		}
	}
	return strings.Join(names, ",")
}

func channelKind(obj string) string {
	switch {
	case strings.HasPrefix(obj, "pipe:"):
		return "pipe"
	case strings.HasPrefix(obj, "kv:"):
		return "kernel store"
	default:
		return "file"
	}
}

func (x *exec) handleWebGet(e *trace.Entry, ev *trace.SysEvent) {
	x.tainted = true
	rs := x.regState(e.TID)
	prefix := "web:" + ev.Path
	if !x.opts.Spec.Web {
		prefix = envPrefix + prefix
	}
	rs[isa.R0] = x.newVar(prefix+"!ret", 64, ev.Ret)
	sm := x.symMem(e.PID)
	for i := range ev.Data {
		name := fmt.Sprintf("%s[%d]", prefix, i)
		sm[ev.Addr+uint64(i)] = x.newVar(name, 8, uint64(ev.Data[i]))
	}
}

// handleOpen models open over a symbolic path: the contextual symbolic
// value challenge.
func (x *exec) handleOpen(e *trace.Entry, ev *trace.SysEvent) {
	sm := x.symMem(e.PID)
	pathPtr := ev.Args[0]
	n := len(ev.Path) + 1
	anySym := false
	for i := 0; i < n; i++ {
		if sm[pathPtr+uint64(i)] != nil {
			anySym = true
			break
		}
	}
	if !anySym {
		return
	}
	x.tainted = true
	rs := x.regState(e.TID)
	if !x.opts.ContextualFS {
		x.incident(x.opts.ContextualStage, e, "symbolic file name concretized")
		return
	}
	// exists := OR over known files of (path bytes == name bytes).
	var exists sym.Expr = sym.False()
	for _, f := range x.opts.Env.KnownFiles {
		var match sym.Expr = sym.True()
		for i := 0; i <= len(f); i++ { // includes NUL terminator
			var want uint64
			if i < len(f) {
				want = uint64(f[i])
			}
			b := sm[pathPtr+uint64(i)]
			if b == nil {
				b = sym.NewConst(uint64(x.concMem(e.PID).LoadByte(pathPtr+uint64(i))), 8)
			}
			match = sym.NewBin(sym.OpAnd, match,
				sym.NewBin(sym.OpEq, b, sym.NewConst(want, 8)))
		}
		exists = sym.NewBin(sym.OpOr, exists, match)
	}
	// fd = exists ? nominal : -1 — replays re-run concretely, so the
	// nominal success fd's exact value is irrelevant.
	nominal := ev.Ret
	if int64(nominal) == -1 {
		nominal = 3
	}
	rs[isa.R0] = symOrNil(sym.NewITE(exists,
		sym.NewConst(nominal, 64), sym.NewConst(^uint64(0), 64)))
}

// handleGetenv models the getenv contextual source: the returned length
// and the delivered value bytes become variables in the plane selected by
// Spec.Env, exactly like web content under Spec.Web.
func (x *exec) handleGetenv(e *trace.Entry, ev *trace.SysEvent) {
	x.tainted = true
	rs := x.regState(e.TID)
	prefix := "getenv:" + ev.Path
	switch x.opts.Spec.Env {
	case SourceDeclared:
	case SourceSim:
		x.res.SimulationUsed = true
		prefix = fmt.Sprintf("%s%s#%d", simPrefix, prefix, x.simSeq)
		x.simSeq++
	default:
		prefix = envPrefix + prefix
	}
	rs[isa.R0] = x.newVar(prefix+"!ret", 64, ev.Ret)
	sm := x.symMem(e.PID)
	for i := range ev.Data {
		name := fmt.Sprintf("%s[%d]", prefix, i)
		sm[ev.Addr+uint64(i)] = x.newVar(name, 8, uint64(ev.Data[i]))
	}
}

// handleExit captures a tracked process's symbolic exit status and
// delivers it to parents already blocked in wait — the kernel patches
// their r0 at wake without a trace entry, so the symbolic side must do
// the same here.
func (x *exec) handleExit(e *trace.Entry, rs *[16]sym.Expr) {
	status := rs[isa.R1]
	if status == nil {
		return
	}
	x.tainted = true
	x.exitStatus[e.PID] = status
	for _, tid := range x.pendingWait[e.PID] {
		x.deliverWaitStatus(tid, status, e)
	}
	delete(x.pendingWait, e.PID)
}

// handleWait models the exit-status covert channel on the parent side.
// When the child already exited the status is delivered immediately;
// otherwise delivery is deferred to the child's exit entry (the parent
// is blocked and executes nothing in between, so late patching of its
// r0 is sound).
func (x *exec) handleWait(e *trace.Entry, ev *trace.SysEvent) {
	if !x.opts.Spec.TrackProcs {
		return // the fork already reported the untraced child
	}
	child := int(int64(ev.Args[0]))
	if status, ok := x.exitStatus[child]; ok {
		x.tainted = true
		x.deliverWaitStatus(e.TID, status, e)
		return
	}
	x.pendingWait[child] = append(x.pendingWait[child], e.TID)
}

// deliverWaitStatus installs a symbolic exit status into a waiting
// thread's r0 (ChanShadow), or reports the covert channel as lost.
func (x *exec) deliverWaitStatus(tid int, status sym.Expr, e *trace.Entry) {
	if x.opts.Spec.Wait == ChanShadow {
		x.regState(tid)[isa.R0] = status
		return
	}
	x.incident(StageEs2, e, "exit-status covert channel lost")
}

func (x *exec) handleFork(e *trace.Entry, ev *trace.SysEvent) {
	child := int(ev.NewID)
	if !x.opts.Spec.TrackProcs {
		if len(x.symMem(x.mainPID)) > 0 {
			x.incident(StageEs2, e, "forked child process not traced")
		}
		return
	}
	// Clone symbolic memory for the child; its registers are the parent's
	// with a concrete r0 = 0.
	childMem := make(map[uint64]sym.Expr, len(x.symMem(e.PID)))
	for a, v := range x.symMem(e.PID) {
		childMem[a] = v
	}
	x.smem[child] = childMem
	saved := *x.regState(e.TID)
	saved[isa.R0] = nil
	x.pendingFork[child] = saved
}
