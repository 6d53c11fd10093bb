package vm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

func negU64(v uint64) uint64 { return ^v + 1 }

func progFrom(t *testing.T, text string) *Program {
	t.Helper()
	img, err := asm.Assemble(asm.Source{Name: "t.s", Text: text})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	p, err := Load(img)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return p
}

// step runs one instruction into a fresh entry.
func step(cpu *CPU, m *mem.Memory, p *Program) (trace.Entry, StepKind) {
	var e trace.Entry
	kind := Exec(cpu, m, p, &e)
	return e, kind
}

// run executes instructions until halt or fault, with a step bound.
func run(t *testing.T, text string) (*CPU, *mem.Memory) {
	t.Helper()
	p := progFrom(t, text)
	cpu := &CPU{PC: p.Image.Entry}
	cpu.SetSP(0x7000_0000)
	m := mem.New()
	for _, sec := range p.Image.Sections {
		m.Write(sec.Addr, sec.Data)
	}
	for i := 0; i < 10000; i++ {
		e, kind := step(cpu, m, p)
		switch kind {
		case StepHalt:
			return cpu, m
		case StepFault:
			t.Fatalf("fault %s at %#x", e.Exc.Kind, e.PC)
		case StepSyscall:
			t.Fatalf("unexpected syscall at %#x", e.PC)
		}
	}
	t.Fatal("program did not halt")
	return nil, nil
}

func TestArithmetic(t *testing.T) {
	cpu, _ := run(t, `
_start:
    mov r1, 10
    add r1, 5
    mov r2, r1
    sub r2, 3
    mov r3, r2
    mul r3, r3
    mov r4, 100
    div r4, 7
    mov r5, 100
    mod r5, 7
    mov r6, -100
    sdiv r6, 7
    mov r7, -100
    smod r7, 7
    mov r8, 5
    neg r8
    halt
`)
	want := map[isa.Reg]uint64{
		isa.R1: 15, isa.R2: 12, isa.R3: 144,
		isa.R4: 14, isa.R5: 2,
		isa.R6: negU64(14), isa.R7: negU64(2),
		isa.R8: negU64(5),
	}
	for r, v := range want {
		if cpu.Regs[r] != v {
			t.Errorf("%s = %d, want %d", r, int64(cpu.Regs[r]), int64(v))
		}
	}
}

func TestLogicAndShifts(t *testing.T) {
	cpu, _ := run(t, `
_start:
    mov r1, 0xf0
    and r1, 0x3c
    mov r2, 0xf0
    or  r2, 0x0f
    mov r3, 0xff
    xor r3, 0x0f
    mov r4, 0
    not r4
    mov r5, 1
    shl r5, 12
    mov r6, 0x8000
    shr r6, 4
    mov r7, -16
    sar r7, 2
    halt
`)
	want := map[isa.Reg]uint64{
		isa.R1: 0x30, isa.R2: 0xff, isa.R3: 0xf0,
		isa.R4: ^uint64(0), isa.R5: 1 << 12, isa.R6: 0x800,
		isa.R7: negU64(4),
	}
	for r, v := range want {
		if cpu.Regs[r] != v {
			t.Errorf("%s = %#x, want %#x", r, cpu.Regs[r], v)
		}
	}
}

func TestBranches(t *testing.T) {
	// Count values < 5 among {3, 7}; exercise signed/unsigned compares.
	cpu, _ := run(t, `
_start:
    mov r1, 0       ; result accumulator
    mov r2, 3
    cmp r2, 5
    jl  .a
    jmp .b
.a: add r1, 1
.b: mov r2, 7
    cmp r2, 5
    jl  .c
    add r1, 16
.c: mov r2, -1     ; unsigned max
    cmp r2, 5
    ja  .d
    jmp .e
.d: add r1, 256
.e: halt
`)
	if cpu.Regs[isa.R1] != 1+16+256 {
		t.Errorf("r1 = %d, want 273", cpu.Regs[isa.R1])
	}
}

func TestCondHoldsTable(t *testing.T) {
	tests := []struct {
		op         isa.Op
		zf, sf, cf bool
		want       bool
	}{
		{isa.OpJe, true, false, false, true},
		{isa.OpJe, false, false, false, false},
		{isa.OpJne, false, false, false, true},
		{isa.OpJl, false, true, false, true},
		{isa.OpJle, true, false, false, true},
		{isa.OpJg, false, false, false, true},
		{isa.OpJg, true, false, false, false},
		{isa.OpJge, false, false, false, true},
		{isa.OpJb, false, false, true, true},
		{isa.OpJbe, true, false, false, true},
		{isa.OpJa, false, false, false, true},
		{isa.OpJa, false, false, true, false},
		{isa.OpJae, false, false, false, true},
		{isa.OpMov, true, true, true, false}, // non-jump
	}
	for _, tt := range tests {
		if got := CondHolds(tt.op, tt.zf, tt.sf, tt.cf); got != tt.want {
			t.Errorf("CondHolds(%s, %v,%v,%v) = %v, want %v",
				tt.op, tt.zf, tt.sf, tt.cf, got, tt.want)
		}
	}
}

func TestMemoryAndStack(t *testing.T) {
	cpu, m := run(t, `
_start:
    mov  r1, buf
    mov  r2, 0x1122334455667788
    st.q [r1+0], r2
    ld.d r3, [r1+0]
    ld.w r4, [r1+0]
    ld.b r5, [r1+7]
    push r2
    pop  r6
    halt
    .data
buf:
    .space 16
`)
	if cpu.Regs[isa.R3] != 0x55667788 {
		t.Errorf("ld.d = %#x", cpu.Regs[isa.R3])
	}
	if cpu.Regs[isa.R4] != 0x7788 {
		t.Errorf("ld.w = %#x", cpu.Regs[isa.R4])
	}
	if cpu.Regs[isa.R5] != 0x11 {
		t.Errorf("ld.b = %#x", cpu.Regs[isa.R5])
	}
	if cpu.Regs[isa.R6] != 0x1122334455667788 {
		t.Errorf("push/pop = %#x", cpu.Regs[isa.R6])
	}
	v, _ := m.ReadUint(cpu.Regs[isa.R1], 8)
	if v != 0x1122334455667788 {
		t.Errorf("memory = %#x", v)
	}
}

func TestCallRet(t *testing.T) {
	cpu, _ := run(t, `
triple:
    mov r0, r1
    add r0, r1
    add r0, r1
    ret
_start:
    mov r1, 7
    call triple
    halt
`)
	if cpu.Regs[isa.R0] != 21 {
		t.Errorf("triple(7) = %d, want 21", cpu.Regs[isa.R0])
	}
}

func TestIndirectJump(t *testing.T) {
	cpu, _ := run(t, `
_start:
    mov r9, done
    jmp r9
    mov r1, 99   ; skipped
done:
    mov r2, 5
    halt
`)
	if cpu.Regs[isa.R1] != 0 || cpu.Regs[isa.R2] != 5 {
		t.Errorf("indirect jump: r1=%d r2=%d", cpu.Regs[isa.R1], cpu.Regs[isa.R2])
	}
}

func TestFloatOps(t *testing.T) {
	cpu, _ := run(t, `
_start:
    mov  r1, 3
    i2f  r1
    movf r2, 0.5
    fadd r1, r2       ; 3.5
    movf r3, 2.0
    fmul r1, r3       ; 7.0
    movf r4, 3.5
    fsub r1, r4       ; 3.5
    fdiv r1, r4       ; 1.0
    mov  r5, r1
    f2i  r5
    fcmp r1, r4       ; 1.0 < 3.5
    halt
`)
	if got := math.Float64frombits(cpu.Regs[isa.R1]); got != 1.0 {
		t.Errorf("float pipeline = %v, want 1.0", got)
	}
	if cpu.Regs[isa.R5] != 1 {
		t.Errorf("f2i = %d, want 1", cpu.Regs[isa.R5])
	}
	if cpu.ZF || !cpu.SF || cpu.CF {
		t.Errorf("fcmp flags = zf%v sf%v cf%v, want false,true,false", cpu.ZF, cpu.SF, cpu.CF)
	}
}

func TestFcmpNaN(t *testing.T) {
	p := progFrom(t, `
_start:
    mov r1, 0
    mov r2, 0
    fdiv r1, r2   ; 0/0 = NaN... but r1 holds int 0 bits -> 0.0/0.0 = NaN
    fcmp r1, r2
    halt
`)
	cpu := &CPU{PC: p.Image.Entry}
	cpu.SetSP(0x7000_0000)
	m := mem.New()
	for i := 0; i < 100; i++ {
		_, kind := step(cpu, m, p)
		if kind == StepHalt {
			break
		}
	}
	if !cpu.CF {
		t.Error("fcmp with NaN should set CF (unordered)")
	}
	if cpu.ZF || cpu.SF {
		t.Error("fcmp with NaN should clear ZF/SF")
	}
}

func TestDivByZeroFaults(t *testing.T) {
	p := progFrom(t, `
_start:
    mov r1, 5
    mov r2, 0
    div r1, r2
    halt
`)
	cpu := &CPU{PC: p.Image.Entry}
	cpu.SetSP(0x7000_0000)
	m := mem.New()
	for i := 0; i < 10; i++ {
		e, kind := step(cpu, m, p)
		if kind == StepFault {
			if e.Exc.Kind != "div0" {
				t.Errorf("fault kind = %s, want div0", e.Exc.Kind)
			}
			if cpu.PC != e.PC {
				t.Error("PC should stay on the faulting instruction")
			}
			return
		}
	}
	t.Fatal("expected div0 fault")
}

func TestBadPCFaults(t *testing.T) {
	p := progFrom(t, "_start:\n halt\n")
	cpu := &CPU{PC: 0x999999}
	m := mem.New()
	e, kind := step(cpu, m, p)
	if kind != StepFault || e.Exc.Kind != "badpc" {
		t.Errorf("got kind %v exc %+v, want badpc fault", kind, e.Exc)
	}
}

func TestTraceEntryValues(t *testing.T) {
	p := progFrom(t, `
_start:
    mov  r1, 5
    mov  r2, 9
    cmp  r1, r2
    jl   .x
    nop
.x: halt
`)
	cpu := &CPU{PC: p.Image.Entry}
	cpu.SetSP(0x7000_0000)
	m := mem.New()
	var entries []struct {
		v1, v2 uint64
		taken  bool
		op     isa.Op
	}
	for i := 0; i < 10; i++ {
		e, kind := step(cpu, m, p)
		entries = append(entries, struct {
			v1, v2 uint64
			taken  bool
			op     isa.Op
		}{e.V1, e.V2, e.Taken, e.Instr.Op})
		if kind == StepHalt {
			break
		}
	}
	// cmp entry must carry both operand values.
	cmpE := entries[2]
	if cmpE.op != isa.OpCmp || cmpE.v1 != 5 || cmpE.v2 != 9 {
		t.Errorf("cmp entry = %+v", cmpE)
	}
	jlE := entries[3]
	if jlE.op != isa.OpJl || !jlE.taken {
		t.Errorf("jl entry = %+v, want taken", jlE)
	}
}

func TestLoadProgramErrors(t *testing.T) {
	img, err := asm.Assemble(asm.Source{Name: "t.s", Text: "_start:\n halt\n"})
	if err != nil {
		t.Fatal(err)
	}
	img.Sections = img.Sections[1:] // drop .text
	if _, err := Load(img); err == nil {
		t.Error("Load without .text should fail")
	}
}

func TestQuickShiftSemantics(t *testing.T) {
	// Property: shl/shr/sar on the VM match Go's masked-shift semantics.
	p := progFrom(t, `
_start:
    mov r3, r1
    shl r3, r2
    mov r4, r1
    shr r4, r2
    mov r5, r1
    sar r5, r2
    halt
`)
	f := func(a uint64, k uint8) bool {
		cpu := &CPU{PC: p.Image.Entry}
		cpu.SetSP(0x7000_0000)
		cpu.Regs[isa.R1] = a
		cpu.Regs[isa.R2] = uint64(k)
		m := mem.New()
		for {
			_, kind := step(cpu, m, p)
			if kind == StepHalt {
				break
			}
			if kind != StepNormal {
				return false
			}
		}
		s := uint(k) & 63
		return cpu.Regs[isa.R3] == a<<s &&
			cpu.Regs[isa.R4] == a>>s &&
			cpu.Regs[isa.R5] == uint64(int64(a)>>s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
