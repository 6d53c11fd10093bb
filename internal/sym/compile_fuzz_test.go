package sym

import (
	"encoding/binary"
	"testing"
)

// FuzzCompiledEval is the compiled evaluator's equivalence fuzzer: for
// arbitrary raw expression systems (buildSystem, shared with
// FuzzInternEval) and arbitrary sequences of slot writes, every
// constraint's value in the compiled Program, and both operand values
// of a comparison root, must equal Eval over the equivalent name map
// after each write. Writes are full 64-bit values, so a Program that
// skipped a variable's width mask would differ.
//
// Eval walks trees, so the comparison is gated on a tree-size bound as
// in FuzzInternEval; Compile itself runs on everything.
func FuzzCompiledEval(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 1, 2, 3}, []byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 0, 1, 0, 1, 0, 4, 0, 2, 1, 1, 2, 5, 3, 0, 0}, []byte{0, 7, 0, 0, 0, 0, 0, 0, 1, 1, 0x30})
	f.Add([]byte{1, 2, 4, 0, 3, 6, 1, 9, 5, 2, 0, 0}, []byte{0, 0, 0, 0, 0, 0, 0, 0xe0, 0x41})
	f.Add([]byte{6, 0, 0, 60, 5, 0, 0, 0}, []byte{0, 1})
	f.Add([]byte{4, 0, 1, 2, 5, 3, 0, 0}, []byte{0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("C000C000A012"), []byte("slot writes"))

	f.Fuzz(func(t *testing.T, data, writes []byte) {
		sys := buildSystem(data, 0)
		p := Compile(sys)
		if p.Constraints() != len(sys) {
			t.Fatalf("%d compiled constraints, want %d", p.Constraints(), len(sys))
		}
		names := p.Vars()
		widths := VarWidths(sys...)
		if len(names) != len(widths) {
			t.Fatalf("%d slots, want %d variables", len(names), len(widths))
		}
		for i, n := range names {
			if i > 0 && names[i-1] >= n {
				t.Fatalf("slot names %q not sorted", names)
			}
			if p.Width(i) != widths[n] {
				t.Fatalf("slot %q width %d, want %d", n, p.Width(i), widths[n])
			}
		}

		var total uint64
		for _, e := range sys {
			total = satAdd(total, TreeNodes(e))
		}
		if total > 1<<15 {
			return // Eval's tree walk would blow up on shared DAGs
		}
		slots := make([]uint64, len(names))
		env := make(map[string]uint64, len(names))
		check := func(step int) {
			p.Eval(slots)
			for i, n := range names {
				env[n] = slots[i]
			}
			for k, c := range sys {
				v, op, a, b := p.Root(k)
				if want := Eval(c, env); v != want {
					t.Fatalf("write %d, constraint %d: compiled %#x, Eval %#x", step, k, v, want)
				}
				bin, ok := c.(*Bin)
				if !ok || !bin.Op.IsCompare() {
					if op != 0 {
						t.Fatalf("write %d, constraint %d: operator %v on a non-comparison root", step, k, op)
					}
					continue
				}
				if op != bin.Op || a != Eval(bin.A, env) || b != Eval(bin.B, env) {
					t.Fatalf("write %d, constraint %d: compiled %v(%#x, %#x), Eval %v(%#x, %#x)",
						step, k, op, a, b, bin.Op, Eval(bin.A, env), Eval(bin.B, env))
				}
			}
		}
		check(0)
		if len(names) == 0 {
			return
		}
		for step := 1; len(writes) > 0; step++ {
			var word [8]byte
			n := copy(word[:], writes[1:])
			slots[int(writes[0])%len(slots)] = binary.LittleEndian.Uint64(word[:])
			writes = writes[1+n:]
			check(step)
		}
	})
}
