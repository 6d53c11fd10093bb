// Package bin defines LBF ("logic-bomb format"), the small binary image
// container produced by the assembler and consumed by the loader: a set of
// sections mapped at fixed addresses, a symbol table, and an entry point.
// It plays the role ELF plays for the binaries studied in the paper.
package bin

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Canonical memory layout for LBF images.
const (
	// TextBase is where the .text section is mapped.
	TextBase = 0x0000_1000
	// DataBase is where the .data section is mapped.
	DataBase = 0x0002_0000
	// StackTop is the initial stack pointer; the stack grows down.
	StackTop = 0x7fff_f000
	// ArgBase is where the loader places the argv block.
	ArgBase = 0x7ffe_0000
	// HeapBase is scratch space available to guest programs.
	HeapBase = 0x0010_0000
)

// Magic identifies an LBF image.
var Magic = [4]byte{'L', 'B', 'F', '1'}

// Errors returned by Decode.
var (
	ErrBadMagic  = errors.New("bin: bad magic")
	ErrTruncated = errors.New("bin: truncated image")
)

// Section is a named blob mapped at a fixed virtual address.
type Section struct {
	Name string
	Addr uint64
	Data []byte
}

// Symbol is a named address, used for entry points and directed-search
// targets (the `bomb` symbol).
type Symbol struct {
	Name string
	Addr uint64
}

// Image is a loadable LB64 binary. An image must not be modified once
// it has been loaded (see Loaded).
type Image struct {
	Entry    uint64
	Sections []Section
	Symbols  []Symbol

	loadOnce sync.Once
	loaded   any
}

// Loaded returns what load derives from the image, calling load only on
// the first call: package vm keeps the decoded program here, so every
// machine and analysis of one image shares it and it lives exactly as
// long as the image. Concurrent callers all receive the first call's
// value.
func (im *Image) Loaded(load func(*Image) any) any {
	im.loadOnce.Do(func() { im.loaded = load(im) })
	return im.loaded
}

// Symbol returns the address of the named symbol.
func (im *Image) Symbol(name string) (uint64, bool) {
	for _, s := range im.Symbols {
		if s.Name == name {
			return s.Addr, true
		}
	}
	return 0, false
}

// Section returns the named section.
func (im *Image) Section(name string) (Section, bool) {
	for _, s := range im.Sections {
		if s.Name == name {
			return s, true
		}
	}
	return Section{}, false
}

// TextRange returns the [lo, hi) address range of the text section, used to
// validate symbolic jump targets. ok is false if there is no text section.
func (im *Image) TextRange() (lo, hi uint64, ok bool) {
	s, ok := im.Section(".text")
	if !ok {
		return 0, 0, false
	}
	return s.Addr, s.Addr + uint64(len(s.Data)), true
}

// Size returns the total number of mapped bytes.
func (im *Image) Size() int {
	n := 0
	for _, s := range im.Sections {
		n += len(s.Data)
	}
	return n
}

// SymbolAt returns the name of the symbol with the greatest address that is
// <= addr, for diagnostics. ok is false if no symbol precedes addr.
func (im *Image) SymbolAt(addr uint64) (string, bool) {
	syms := make([]Symbol, len(im.Symbols))
	copy(syms, im.Symbols)
	sort.Slice(syms, func(i, j int) bool { return syms[i].Addr < syms[j].Addr })
	best := ""
	found := false
	for _, s := range syms {
		if s.Addr <= addr {
			best, found = s.Name, true
		}
	}
	return best, found
}

// Encode serializes the image.
//
// Layout (all integers little-endian):
//
//	magic[4] | entry u64 | nsections u32 | nsymbols u32
//	per section: nameLen u32 | name | addr u64 | dataLen u32 | data
//	per symbol:  nameLen u32 | name | addr u64
func (im *Image) Encode() []byte {
	var buf bytes.Buffer
	buf.Write(Magic[:])
	writeU64(&buf, im.Entry)
	writeU32(&buf, uint32(len(im.Sections)))
	writeU32(&buf, uint32(len(im.Symbols)))
	for _, s := range im.Sections {
		writeStr(&buf, s.Name)
		writeU64(&buf, s.Addr)
		writeU32(&buf, uint32(len(s.Data)))
		buf.Write(s.Data)
	}
	for _, s := range im.Symbols {
		writeStr(&buf, s.Name)
		writeU64(&buf, s.Addr)
	}
	return buf.Bytes()
}

// Decode parses a serialized image.
func Decode(data []byte) (*Image, error) {
	r := &reader{data: data}
	var magic [4]byte
	if err := r.bytes(magic[:]); err != nil {
		return nil, err
	}
	if magic != Magic {
		return nil, ErrBadMagic
	}
	im := &Image{}
	var err error
	if im.Entry, err = r.u64(); err != nil {
		return nil, err
	}
	nsec, err := r.u32()
	if err != nil {
		return nil, err
	}
	nsym, err := r.u32()
	if err != nil {
		return nil, err
	}
	const maxCount = 1 << 20 // sanity bound against corrupt images
	if nsec > maxCount || nsym > maxCount {
		return nil, fmt.Errorf("%w: unreasonable counts %d/%d", ErrTruncated, nsec, nsym)
	}
	for i := uint32(0); i < nsec; i++ {
		name, err := r.str()
		if err != nil {
			return nil, fmt.Errorf("section %d: %w", i, err)
		}
		addr, err := r.u64()
		if err != nil {
			return nil, fmt.Errorf("section %d: %w", i, err)
		}
		n, err := r.u32()
		if err != nil {
			return nil, fmt.Errorf("section %d: %w", i, err)
		}
		data := make([]byte, n)
		if err := r.bytes(data); err != nil {
			return nil, fmt.Errorf("section %d: %w", i, err)
		}
		im.Sections = append(im.Sections, Section{Name: name, Addr: addr, Data: data})
	}
	for i := uint32(0); i < nsym; i++ {
		name, err := r.str()
		if err != nil {
			return nil, fmt.Errorf("symbol %d: %w", i, err)
		}
		addr, err := r.u64()
		if err != nil {
			return nil, fmt.Errorf("symbol %d: %w", i, err)
		}
		im.Symbols = append(im.Symbols, Symbol{Name: name, Addr: addr})
	}
	return im, nil
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func writeU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}

func writeStr(buf *bytes.Buffer, s string) {
	writeU32(buf, uint32(len(s)))
	buf.WriteString(s)
}

type reader struct {
	data []byte
	off  int
}

func (r *reader) bytes(dst []byte) error {
	if r.off+len(dst) > len(r.data) {
		return ErrTruncated
	}
	copy(dst, r.data[r.off:])
	r.off += len(dst)
	return nil
}

func (r *reader) u32() (uint32, error) {
	var b [4]byte
	if err := r.bytes(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (r *reader) u64() (uint64, error) {
	var b [8]byte
	if err := r.bytes(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if int(n) > len(r.data)-r.off {
		return "", ErrTruncated
	}
	b := make([]byte, n)
	if err := r.bytes(b); err != nil {
		return "", err
	}
	return string(b), nil
}
