package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Instruction encoding.
//
// Short form (4 bytes):   op | mode+size | r1 | r2
// Long form (12 bytes):   op | mode+size | r1 | r2 | imm (8 bytes, LE)
//
// The mode byte packs the operand mode in the low nibble and the access
// size code (0..3 for 1,2,4,8 bytes) in the high nibble. An immediate word
// follows exactly when Mode.HasImm() is true.
const (
	shortLen = 4
	longLen  = 12

	// MaxEncodedLen is the longest possible encoded instruction.
	MaxEncodedLen = longLen

	// InstrAlign divides every encoded length, so the instructions
	// decoded from the start of a text begin at multiples of it.
	InstrAlign = shortLen
)

// Encoding and decoding errors.
var (
	ErrShortBuffer = errors.New("isa: buffer too short")
	ErrBadEncoding = errors.New("isa: bad encoding")
)

func sizeCode(size uint8) (uint8, error) {
	switch size {
	case 1:
		return 0, nil
	case 2:
		return 1, nil
	case 4:
		return 2, nil
	case 8:
		return 3, nil
	}
	return 0, fmt.Errorf("%w: size %d", ErrBadEncoding, size)
}

func codeSize(code uint8) uint8 { return 1 << (code & 3) }

// Encode appends the binary encoding of in to dst and returns the extended
// slice. The instruction must validate.
func Encode(dst []byte, in Instr) ([]byte, error) {
	if err := in.Validate(); err != nil {
		return dst, fmt.Errorf("encode: %w", err)
	}
	sc, err := sizeCode(in.Size)
	if err != nil {
		return dst, err
	}
	dst = append(dst, byte(in.Op), byte(in.Mode)|sc<<4, byte(in.R1), byte(in.R2))
	if in.Mode.HasImm() {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(in.Imm))
	}
	return dst, nil
}

// Decode reads one instruction from the front of buf. It returns the
// instruction and the number of bytes consumed.
func Decode(buf []byte) (Instr, int, error) {
	if len(buf) < shortLen {
		return Instr{}, 0, ErrShortBuffer
	}
	in := Instr{
		Op:   Op(buf[0]),
		Mode: Mode(buf[1] & 0x0f),
		Size: codeSize(buf[1] >> 4),
		R1:   Reg(buf[2]),
		R2:   Reg(buf[3]),
	}
	n := shortLen
	if in.Mode.HasImm() {
		if len(buf) < longLen {
			return Instr{}, 0, ErrShortBuffer
		}
		in.Imm = int64(binary.LittleEndian.Uint64(buf[shortLen:]))
		n = longLen
	}
	if err := in.Validate(); err != nil {
		return Instr{}, 0, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	return in, n, nil
}

// EncodeProgram encodes a sequence of instructions back to back.
func EncodeProgram(ins []Instr) ([]byte, error) {
	var buf []byte
	for i, in := range ins {
		var err error
		buf, err = Encode(buf, in)
		if err != nil {
			return nil, fmt.Errorf("instruction %d: %w", i, err)
		}
	}
	return buf, nil
}

// DecodeProgram decodes a byte stream into instructions until the buffer is
// exhausted.
func DecodeProgram(buf []byte) ([]Instr, error) {
	var ins []Instr
	off := 0
	for off < len(buf) {
		in, n, err := Decode(buf[off:])
		if err != nil {
			return nil, fmt.Errorf("offset %d: %w", off, err)
		}
		ins = append(ins, in)
		off += n
	}
	return ins, nil
}
