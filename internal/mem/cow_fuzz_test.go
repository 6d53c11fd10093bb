package mem

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// refMemory is the naive deep-copy oracle: a map of individually stored
// bytes, cloned by copying every entry. Semantically it is exactly what
// Memory promises, with none of the page sharing.
type refMemory struct {
	bytes map[uint64]byte
}

func newRefMemory() *refMemory { return &refMemory{bytes: make(map[uint64]byte)} }

func (r *refMemory) clone() *refMemory {
	c := newRefMemory()
	for a, b := range r.bytes {
		c.bytes[a] = b
	}
	return c
}

func (r *refMemory) store(addr uint64, b byte) { r.bytes[addr] = b }
func (r *refMemory) load(addr uint64) byte     { return r.bytes[addr] }

// FuzzMemoryCOW drives random interleavings of writes, clones and reads
// over a family of copy-on-write memories and checks every one of them
// against its deep-copy reference: contents stay byte-equal and writes
// never leak between siblings. Multi-byte Write/Read/WriteUint/ReadUint
// accesses start just below a page boundary so they straddle it; a twin
// family applies every write byte by byte with StoreByte, and each
// memory must end with its twin's COW fault and page counts.
func FuzzMemoryCOW(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 0xff, 2})
	f.Add([]byte{1, 1, 0, 9, 9, 2, 3, 0, 7})
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3})
	f.Add([]byte{3, 0, 0x3c, 0, 3, 9, 1, 0, 3, 0, 0x3c, 1, 5, 7, 3, 1, 0x3f, 1, 9, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		cows := []*Memory{New()}
		twins := []*Memory{New()}
		refs := []*refMemory{newRefMemory()}
		// touched tracks every address any operation wrote, so the final
		// sweep compares the full modelled footprint.
		touched := make(map[uint64]bool)
		write := func(i int, addr uint64, buf []byte) {
			for j, b := range buf {
				a := addr + uint64(j)
				twins[i].StoreByte(a, b)
				refs[i].store(a, b)
				touched[a] = true
			}
		}
		checkRead := func(i int, addr uint64, got []byte, how string) {
			for j, b := range got {
				if want := refs[i].load(addr + uint64(j)); b != want {
					t.Fatalf("mem[%d] %s at %#x: byte %d = %#x, reference says %#x", i, how, addr, j, b, want)
				}
			}
		}

		// The script is consumed as a stream of (op, operand...) tuples.
		pos := 0
		next := func() (byte, bool) {
			if pos >= len(script) {
				return 0, false
			}
			b := script[pos]
			pos++
			return b, true
		}
		const maxMems = 12
		for {
			op, ok := next()
			if !ok {
				break
			}
			which, ok := next()
			if !ok {
				break
			}
			i := int(which) % len(cows)
			switch op % 4 {
			case 0: // write one byte
				hi, _ := next()
				lo, _ := next()
				val, _ := next()
				// Keep addresses inside a few pages so clones actually
				// contend on shared pages instead of scattering.
				addr := (uint64(hi%5) * PageSize) + uint64(lo)*16
				cows[i].StoreByte(addr, val)
				write(i, addr, []byte{val})
			case 1: // clone
				if len(cows) < maxMems {
					cows = append(cows, cows[i].Clone())
					twins = append(twins, twins[i].Clone())
					refs = append(refs, refs[i].clone())
				}
			case 2: // spot read
				hi, _ := next()
				lo, _ := next()
				addr := (uint64(hi%5) * PageSize) + uint64(lo)*16
				if got, want := cows[i].LoadByte(addr), refs[i].load(addr); got != want {
					t.Fatalf("mem[%d] read %#x = %#x, reference says %#x", i, addr, got, want)
				}
			case 3: // multi-byte access straddling a page boundary
				kind, _ := next()
				hi, _ := next()
				val, _ := next()
				// Start up to 15 bytes below the boundary above page hi%5;
				// a length of up to 16 bytes (8 for the Uint forms)
				// crosses it whenever it is longer than that gap.
				addr := uint64(hi%5+1)*PageSize - uint64(hi>>4)
				n := 1 + int(kind>>2)%16
				size := [4]uint8{1, 2, 4, 8}[(kind>>2)%4]
				switch kind % 4 {
				case 0:
					buf := make([]byte, n)
					for j := range buf {
						buf[j] = val + byte(j)
					}
					cows[i].Write(addr, buf)
					write(i, addr, buf)
				case 1:
					buf := make([]byte, n)
					cows[i].Read(addr, buf)
					checkRead(i, addr, buf, "Read")
				case 2:
					v := uint64(val) * 0x0102_0304_0506_0708
					if err := cows[i].WriteUint(addr, size, v); err != nil {
						t.Fatal(err)
					}
					var buf [8]byte
					binary.LittleEndian.PutUint64(buf[:], v)
					write(i, addr, buf[:size])
				case 3:
					v, err := cows[i].ReadUint(addr, size)
					if err != nil {
						t.Fatal(err)
					}
					var buf [8]byte
					binary.LittleEndian.PutUint64(buf[:], v)
					checkRead(i, addr, buf[:size], "ReadUint")
					if size < 8 && v>>(8*size) != 0 {
						t.Fatalf("mem[%d] ReadUint(%#x, %d) = %#x is not zero-extended", i, addr, size, v)
					}
				}
			}
		}

		// Full differential sweep: every memory must agree with its own
		// reference at every address the script ever touched. A COW bug
		// that leaks a write into a sibling shows up here as a mismatch
		// against that sibling's reference.
		for i := range cows {
			for addr := range touched {
				if got, want := cows[i].LoadByte(addr), refs[i].load(addr); got != want {
					t.Fatalf("after script: mem[%d] at %#x = %#x, reference says %#x (siblings must not share writes)",
						i, addr, got, want)
				}
			}
			if got, want := cows[i].COWFaults(), twins[i].COWFaults(); got != want {
				t.Fatalf("mem[%d] took %d COW faults, byte-wise twin %d", i, got, want)
			}
			if got, want := cows[i].PageCount(), twins[i].PageCount(); got != want {
				t.Fatalf("mem[%d] holds %d pages, byte-wise twin %d", i, got, want)
			}
		}
	})
}

// BenchmarkMemClone measures cloning a memory with a realistic working
// set (256 populated pages = 1 MiB) without writing to the clone: the
// copy-on-write win over the former deep copy.
func BenchmarkMemClone(b *testing.B) {
	m := New()
	for i := 0; i < 256; i++ {
		m.StoreByte(uint64(i)*PageSize, byte(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.Clone()
		_ = c
	}
}

// BenchmarkMemCloneWriteFault measures a clone plus one COW fault — the
// realistic per-machine boot cost: share everything, then pay for the
// single page the new run actually dirties first.
func BenchmarkMemCloneWriteFault(b *testing.B) {
	m := New()
	for i := 0; i < 256; i++ {
		m.StoreByte(uint64(i)*PageSize, byte(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.Clone()
		c.StoreByte(42*PageSize+7, byte(i))
	}
}

func init() {
	// Guard against accidental page-size drift breaking the fuzz
	// address construction above.
	if PageSize != 4096 {
		panic(fmt.Sprintf("fuzz harness assumes 4KiB pages, got %d", PageSize))
	}
}
