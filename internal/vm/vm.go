// Package vm implements the concrete LB64 CPU: a register file, flags and
// single-instruction semantics over guest memory. It is deliberately free
// of OS concerns — scheduling, system calls and signal dispatch live in
// package gos, which drives one or more CPUs.
package vm

import (
	"fmt"
	"math"

	"repro/internal/bin"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// CPU is the architectural state of one hardware thread.
type CPU struct {
	Regs [isa.NumRegs]uint64
	PC   uint64
	ZF   bool // equal / zero
	SF   bool // signed less-than (or FP less-than)
	CF   bool // unsigned less-than (or FP unordered)
}

// Clone returns a copy of the CPU state.
func (c *CPU) Clone() *CPU {
	d := *c
	return &d
}

// SP returns the stack pointer.
func (c *CPU) SP() uint64 { return c.Regs[isa.SP] }

// SetSP sets the stack pointer.
func (c *CPU) SetSP(v uint64) { c.Regs[isa.SP] = v }

// Program is a loaded binary image: a dense table with one slot per
// byte of text, indexed by pc - base, holding the instruction that starts
// at that address, plus the boot memory holding every section's bytes.
// LB64 text is immutable after load, so decoding once up front is sound
// (self-modifying code is out of scope). A slot whose len is zero starts
// no instruction, so a jump into the middle of one faults exactly like a
// jump outside the text.
//
// A Program is read-only after load: the boot memory is never written
// again, and machines start from copy-on-write clones of it (Memory), so
// any number of goroutines may share one Program.
type Program struct {
	Image *bin.Image
	base  uint64
	code  []decoded
	n     int
	boot  *mem.Memory
}

type decoded struct {
	instr isa.Instr
	len   uint8 // 0: no instruction starts here
}

// LoadProgram decodes the text section of an image and writes every
// section into the program's boot memory.
func LoadProgram(img *bin.Image) (*Program, error) {
	sec, ok := img.Section(".text")
	if !ok {
		return nil, fmt.Errorf("vm: image has no .text section")
	}
	p := &Program{Image: img, base: sec.Addr, code: make([]decoded, len(sec.Data)), boot: mem.New()}
	off := 0
	for off < len(sec.Data) {
		in, n, err := isa.Decode(sec.Data[off:])
		if err != nil {
			return nil, fmt.Errorf("vm: decode at %#x: %w", sec.Addr+uint64(off), err)
		}
		p.code[off] = decoded{instr: in, len: uint8(n)}
		p.n++
		off += n
	}
	for _, sec := range img.Sections {
		p.boot.Write(sec.Addr, sec.Data)
	}
	return p, nil
}

// Memory returns a copy-on-write clone of the boot memory: the image's
// sections as loaded, sharing every page until the clone writes to it.
func (p *Program) Memory() *mem.Memory { return p.boot.Clone() }

// lookup returns the slot of the instruction starting at addr, or nil.
func (p *Program) lookup(addr uint64) *decoded {
	off := addr - p.base
	if off >= uint64(len(p.code)) || p.code[off].len == 0 {
		return nil
	}
	return &p.code[off]
}

// At returns the decoded instruction at addr.
func (p *Program) At(addr uint64) (isa.Instr, int, bool) {
	d := p.lookup(addr)
	if d == nil {
		return isa.Instr{}, 0, false
	}
	return d.instr, int(d.len), true
}

// NumInstrs returns the number of decoded instructions.
func (p *Program) NumInstrs() int { return p.n }

// Instrs calls f for every decoded instruction in ascending address
// order (static analyses over the code need a stable iteration order).
func (p *Program) Instrs(f func(addr uint64, in isa.Instr, size int)) {
	for off := 0; off < len(p.code); {
		d := &p.code[off]
		f(p.base+uint64(off), d.instr, int(d.len))
		off += int(d.len)
	}
}

// StepKind describes what the executed instruction asks the OS to do next.
type StepKind int

// Step kinds.
const (
	StepNormal  StepKind = iota + 1 // continue with the next instruction
	StepSyscall                     // the OS must perform a system call
	StepHalt                        // the machine should stop
	StepFault                       // an exception was raised (Entry.Exc)
)

// ExitThreadPC is the sentinel return address planted under thread entry
// points and _start: a `ret` to this address terminates the thread.
const ExitThreadPC = 0xdead_0000_0000_0000

// Exec executes exactly one instruction at cpu.PC.
//
// It overwrites *e with a trace.Entry describing the step (pc, operand
// values, effective address, branch outcome) and advances the CPU. The
// caller owns e and reuses it across steps, so one step copies no entry.
// Syscall instructions return StepSyscall *without* advancing further
// state — the OS performs the call, sets r0 and records the SysEvent.
// Faults return StepFault with Entry.Exc set and leave PC on the faulting
// instruction so the OS can dispatch a handler.
func Exec(cpu *CPU, m *mem.Memory, prog *Program, e *trace.Entry) StepKind {
	*e = trace.Entry{PC: cpu.PC}
	d := prog.lookup(cpu.PC)
	if d == nil {
		e.Exc = &trace.ExcEvent{Kind: "badpc"}
		return StepFault
	}
	in := d.instr
	e.Instr = in
	next := cpu.PC + uint64(d.len)

	// Record pre-execution operand values.
	switch in.Mode {
	case isa.ModeR, isa.ModeRI, isa.ModeRM, isa.ModeMR:
		e.V1 = cpu.Regs[in.R1]
	case isa.ModeRR:
		e.V1 = cpu.Regs[in.R1]
		e.V2 = cpu.Regs[in.R2]
	}
	if in.Mode == isa.ModeMR {
		e.V2 = cpu.Regs[in.R2]
	}

	// src is the value of the second operand for two-operand forms, or of
	// the single operand for push/jmp/call immediates.
	src := func() uint64 {
		switch in.Mode {
		case isa.ModeRR:
			return cpu.Regs[in.R2]
		case isa.ModeRI, isa.ModeI:
			return uint64(in.Imm)
		}
		return 0
	}

	switch in.Op {
	case isa.OpNop:

	case isa.OpMov:
		cpu.Regs[in.R1] = src()

	case isa.OpLd:
		addr := cpu.Regs[in.R2] + uint64(in.Imm)
		v, err := m.ReadUint(addr, in.Size)
		if err != nil {
			e.Exc = &trace.ExcEvent{Kind: "badaccess"}
			return StepFault
		}
		e.Addr, e.MemVal = addr, v
		cpu.Regs[in.R1] = v

	case isa.OpSt:
		addr := cpu.Regs[in.R1] + uint64(in.Imm)
		v := cpu.Regs[in.R2]
		if err := m.WriteUint(addr, in.Size, v); err != nil {
			e.Exc = &trace.ExcEvent{Kind: "badaccess"}
			return StepFault
		}
		e.Addr = addr
		e.MemVal = v & sizeMask(in.Size)

	case isa.OpPush:
		sp := cpu.SP() - 8
		cpu.SetSP(sp)
		v := src()
		if in.Mode == isa.ModeR {
			v = cpu.Regs[in.R1]
		}
		_ = m.WriteUint(sp, 8, v)
		e.Addr, e.MemVal = sp, v

	case isa.OpPop:
		sp := cpu.SP()
		v, _ := m.ReadUint(sp, 8)
		cpu.SetSP(sp + 8)
		cpu.Regs[in.R1] = v
		e.Addr, e.MemVal = sp, v

	case isa.OpAdd:
		cpu.Regs[in.R1] += src()
	case isa.OpSub:
		cpu.Regs[in.R1] -= src()
	case isa.OpMul:
		cpu.Regs[in.R1] *= src()
	case isa.OpDiv, isa.OpMod, isa.OpSdiv, isa.OpSmod:
		b := src()
		if b == 0 {
			e.Exc = &trace.ExcEvent{Kind: "div0"}
			return StepFault
		}
		a := cpu.Regs[in.R1]
		var r uint64
		switch in.Op {
		case isa.OpDiv:
			r = a / b
		case isa.OpMod:
			r = a % b
		case isa.OpSdiv:
			r = uint64(int64(a) / int64(b))
		case isa.OpSmod:
			r = uint64(int64(a) % int64(b))
		}
		cpu.Regs[in.R1] = r
	case isa.OpNeg:
		cpu.Regs[in.R1] = -cpu.Regs[in.R1]

	case isa.OpAnd:
		cpu.Regs[in.R1] &= src()
	case isa.OpOr:
		cpu.Regs[in.R1] |= src()
	case isa.OpXor:
		cpu.Regs[in.R1] ^= src()
	case isa.OpNot:
		cpu.Regs[in.R1] = ^cpu.Regs[in.R1]
	case isa.OpShl:
		cpu.Regs[in.R1] <<= src() & 63
	case isa.OpShr:
		cpu.Regs[in.R1] >>= src() & 63
	case isa.OpSar:
		cpu.Regs[in.R1] = uint64(int64(cpu.Regs[in.R1]) >> (src() & 63))

	case isa.OpCmp:
		a, b := cpu.Regs[in.R1], src()
		cpu.ZF = a == b
		cpu.SF = int64(a) < int64(b)
		cpu.CF = a < b
	case isa.OpTest:
		v := cpu.Regs[in.R1] & src()
		cpu.ZF = v == 0
		cpu.SF = int64(v) < 0
		cpu.CF = false

	case isa.OpJmp:
		if in.Mode == isa.ModeR {
			next = cpu.Regs[in.R1]
		} else {
			next = uint64(in.Imm)
		}
		e.Taken = true
	case isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge,
		isa.OpJb, isa.OpJbe, isa.OpJa, isa.OpJae:
		taken := CondHolds(in.Op, cpu.ZF, cpu.SF, cpu.CF)
		e.Taken = taken
		if taken {
			next = uint64(in.Imm)
		}

	case isa.OpCall:
		target := uint64(in.Imm)
		if in.Mode == isa.ModeR {
			target = cpu.Regs[in.R1]
		}
		sp := cpu.SP() - 8
		cpu.SetSP(sp)
		_ = m.WriteUint(sp, 8, next)
		e.Addr, e.MemVal = sp, next
		next = target
	case isa.OpRet:
		sp := cpu.SP()
		v, _ := m.ReadUint(sp, 8)
		cpu.SetSP(sp + 8)
		e.Addr, e.MemVal = sp, v
		next = v

	case isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFdiv:
		a := math.Float64frombits(cpu.Regs[in.R1])
		b := math.Float64frombits(cpu.Regs[in.R2])
		var r float64
		switch in.Op {
		case isa.OpFadd:
			r = a + b
		case isa.OpFsub:
			r = a - b
		case isa.OpFmul:
			r = a * b
		case isa.OpFdiv:
			r = a / b
		}
		cpu.Regs[in.R1] = math.Float64bits(r)
	case isa.OpFcmp:
		a := math.Float64frombits(cpu.Regs[in.R1])
		b := math.Float64frombits(cpu.Regs[in.R2])
		cpu.ZF = a == b
		cpu.SF = a < b
		cpu.CF = math.IsNaN(a) || math.IsNaN(b)
	case isa.OpI2f:
		cpu.Regs[in.R1] = math.Float64bits(float64(int64(cpu.Regs[in.R1])))
	case isa.OpF2i:
		f := math.Float64frombits(cpu.Regs[in.R1])
		switch {
		case math.IsNaN(f):
			cpu.Regs[in.R1] = 0
		case f >= math.MaxInt64:
			cpu.Regs[in.R1] = math.MaxInt64
		case f <= math.MinInt64:
			cpu.Regs[in.R1] = 0x8000_0000_0000_0000 // int64 minimum
		default:
			cpu.Regs[in.R1] = uint64(int64(f))
		}

	case isa.OpSyscall:
		cpu.PC = next
		e.NextPC = next
		return StepSyscall

	case isa.OpHalt:
		cpu.PC = next
		return StepHalt
	}

	cpu.PC = next
	e.NextPC = next
	return StepNormal
}

// CondHolds evaluates a conditional-jump predicate against the flags.
func CondHolds(op isa.Op, zf, sf, cf bool) bool {
	switch op {
	case isa.OpJe:
		return zf
	case isa.OpJne:
		return !zf
	case isa.OpJl:
		return sf
	case isa.OpJle:
		return sf || zf
	case isa.OpJg:
		return !sf && !zf
	case isa.OpJge:
		return !sf
	case isa.OpJb:
		return cf
	case isa.OpJbe:
		return cf || zf
	case isa.OpJa:
		return !cf && !zf
	case isa.OpJae:
		return !cf
	}
	return false
}

func sizeMask(size uint8) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return (uint64(1) << (8 * uint(size))) - 1
}
