package vm

import (
	"testing"

	"repro/internal/bin"
	"repro/internal/isa"
)

type refInstr struct {
	instr  isa.Instr
	len    uint8
	leader bool
}

// refDecode is the reference model of Load: a map from every
// instruction start to its decoded form, built by walking isa.Decode
// over the text, with each instruction's leader flag set from a leader
// set built the way the coverage layer defines blocks.
func refDecode(base uint64, text []byte) (map[uint64]refInstr, error) {
	code := make(map[uint64]refInstr)
	leaders := map[uint64]bool{base: true}
	for off := 0; off < len(text); {
		in, n, err := isa.Decode(text[off:])
		if err != nil {
			return nil, err
		}
		addr := base + uint64(off)
		code[addr] = refInstr{instr: in, len: uint8(n)}
		if op := in.Op; op.IsJump() || op == isa.OpCall || op == isa.OpRet || op == isa.OpHalt {
			leaders[addr+uint64(n)] = true
			if in.Mode == isa.ModeI && op != isa.OpRet && op != isa.OpHalt {
				leaders[uint64(in.Imm)] = true
			}
		}
		off += n
	}
	for a, d := range code {
		d.leader = leaders[a]
		code[a] = d
	}
	return code, nil
}

// FuzzProgramDecode checks the slot-indexed decode table against the
// reference map: the script encodes a random instruction stream at a
// random text base, followed by up to 16 bytes of trailing garbage. Both
// models must agree on whether the text decodes, At and Leader must
// agree with the map at every address from 16 bytes below the text to
// 16 past its end, NumLeaders must count the map's leaders, and Instrs
// must visit exactly the map's instructions in ascending address order.
func FuzzProgramDecode(f *testing.F) {
	f.Add([]byte{0, 3, 2, 1, 1, 2, 3, 4, 5, 20, 2, 1, 0, 0, 9})
	f.Add([]byte{7, 8, 18, 2, 3, 0, 0, 0xff, 1, 1, 1, 1, 1, 1, 0x30, 0, 0, 0})
	f.Add([]byte{1, 2, 0, 0, 0, 0, 0, 0, 63, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		base := 0x1000 + uint64(script[0])
		count := int(script[1] % 64)
		rest := script[2:]
		var ins []isa.Instr
		for ; count > 0 && len(rest) >= 6; count-- {
			in := isa.Instr{
				Op:   isa.Op(rest[0] % 64),
				Mode: isa.Mode(rest[1] % 8),
				R1:   isa.Reg(rest[2] % isa.NumRegs),
				R2:   isa.Reg(rest[3] % isa.NumRegs),
				Size: [4]uint8{1, 2, 4, 8}[rest[4]%4],
				Imm:  int64(int8(rest[5])) << (rest[4] % 60),
			}
			rest = rest[6:]
			if in.Validate() == nil {
				ins = append(ins, in)
			}
		}
		text, err := isa.EncodeProgram(ins)
		if err != nil {
			t.Fatalf("encode %d valid instructions: %v", len(ins), err)
		}
		text = append(text, rest[:min(len(rest), 16)]...)

		img := &bin.Image{Entry: base, Sections: []bin.Section{{Name: ".text", Addr: base, Data: text}}}
		p, err := Load(img)
		ref, rerr := refDecode(base, text)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("Load error %v, reference error %v", err, rerr)
		}
		if err != nil {
			return
		}

		end := base + uint64(len(text))
		for a := base - 16; a < end+16; a++ {
			in, n, ok := p.At(a)
			want, wok := ref[a]
			if ok != wok || (ok && (in != want.instr || n != int(want.len))) {
				t.Fatalf("At(%#x) = %+v/%d/%v, reference %+v/%d/%v", a, in, n, ok, want.instr, want.len, wok)
			}
			if got := p.Leader(a); got != want.leader {
				t.Fatalf("Leader(%#x) = %v, reference %v", a, got, want.leader)
			}
		}
		leaders := 0
		for _, d := range ref {
			if d.leader {
				leaders++
			}
		}
		if p.NumLeaders() != leaders {
			t.Fatalf("NumLeaders = %d, reference holds %d", p.NumLeaders(), leaders)
		}
		visited, last := 0, uint64(0)
		p.Instrs(func(a uint64, in isa.Instr, n int) {
			want, ok := ref[a]
			if !ok || in != want.instr || n != int(want.len) {
				t.Fatalf("Instrs visited %#x = %+v/%d, reference %+v/%d/%v", a, in, n, want.instr, want.len, ok)
			}
			if visited > 0 && a <= last {
				t.Fatalf("Instrs visited %#x after %#x", a, last)
			}
			visited, last = visited+1, a
		})
		if visited != len(ref) || p.NumInstrs() != len(ref) {
			t.Fatalf("Instrs visited %d, NumInstrs %d, reference holds %d", visited, p.NumInstrs(), len(ref))
		}
	})
}
