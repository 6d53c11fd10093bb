package vm

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/trace"
)

// BenchmarkExecLoop measures raw interpreter throughput on a counting
// loop (instructions per second of the concrete phase).
func BenchmarkExecLoop(b *testing.B) {
	img, err := asm.Assemble(asm.Source{Name: "b.s", Text: `
_start:
    mov r1, 1000
.loop:
    sub r1, 1
    cmp r1, 0
    jne .loop
    halt
`})
	if err != nil {
		b.Fatal(err)
	}
	p, err := Load(img)
	if err != nil {
		b.Fatal(err)
	}
	var e trace.Entry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu := &CPU{PC: img.Entry}
		cpu.SetSP(0x7000_0000)
		m := mem.New()
		for {
			kind := Exec(cpu, m, p, &e)
			if kind == StepHalt {
				break
			}
		}
	}
}
