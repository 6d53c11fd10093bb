// Package mem implements the sparse paged guest memory used by the LB64
// virtual machine. Addresses are 64-bit; storage is allocated lazily in
// fixed-size pages so that the sparse layout of a loaded binary (text low,
// data in the middle, stack high) costs almost nothing.
//
// Memory is copy-on-write: Clone shares the underlying pages with the
// parent (bumping a per-page refcount) and the first write to a shared
// page copies just that page. Cloning is therefore O(allocated pages) in
// pointer bookkeeping and O(1) in page data for untouched pages, which is
// what makes starting a machine from a loaded program's boot memory, and
// fork(), cheap.
//
// Concurrency contract: a quiescent Memory (no writer running) may be
// cloned by any number of goroutines concurrently, and sibling clones may
// then be written from different goroutines; the copy-on-write fault path
// synchronises on the page refcount. A single Memory value must not be
// written from two goroutines at once.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
)

// PageSize is the granularity of lazy allocation.
const PageSize = 4096

type page struct {
	// refs counts how many Memory values currently reference this page.
	// Pages with refs > 1 are immutable; a write copies the page first.
	refs int32
	data [PageSize]byte
}

// Memory is a sparse 64-bit byte-addressable memory. The zero value is an
// empty memory ready for use, equivalent to New() (Reset also re-arms a
// used memory back to that state).
type Memory struct {
	pages map[uint64]*page
	// cowFaults counts pages that were copied because a write hit a page
	// shared with another Memory.
	cowFaults uint64
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// Clone returns a copy-on-write snapshot of the memory. The clone shares
// every page with the receiver until one side writes to it; only then is
// that single page copied. Used to start every machine from its
// program's boot memory and to implement fork(). A quiescent memory may
// be cloned concurrently.
func (m *Memory) Clone() *Memory {
	c := &Memory{pages: make(map[uint64]*page, len(m.pages))}
	for base, p := range m.pages {
		atomic.AddInt32(&p.refs, 1)
		c.pages[base] = p
	}
	return c
}

// Reset drops all pages, returning the memory to the empty ready state
// (the same state as the zero value or a fresh New()).
func (m *Memory) Reset() {
	for _, p := range m.pages {
		atomic.AddInt32(&p.refs, -1)
	}
	m.pages = nil
	m.cowFaults = 0
}

// PageCount returns the number of allocated pages.
func (m *Memory) PageCount() int { return len(m.pages) }

// COWFaults returns how many pages this memory copied because a write hit
// a page shared with a clone.
func (m *Memory) COWFaults() uint64 { return m.cowFaults }

// SharedPages returns how many of this memory's pages are currently
// shared with at least one other Memory. Intended for tests and stats.
func (m *Memory) SharedPages() int {
	n := 0
	for _, p := range m.pages {
		if atomic.LoadInt32(&p.refs) > 1 {
			n++
		}
	}
	return n
}

func (m *Memory) pageFor(addr uint64, create bool) *page {
	base := addr &^ uint64(PageSize-1)
	p := m.pages[base]
	if p == nil && create {
		if m.pages == nil {
			m.pages = make(map[uint64]*page)
		}
		p = &page{refs: 1}
		m.pages[base] = p
	}
	return p
}

// writablePage returns the page containing addr, guaranteed exclusive to
// this memory, copying it first if it is shared (a COW fault).
//
// The fault path copies the data before releasing the reference: a
// sibling that subsequently observes refs == 1 is the sole owner and may
// write in place, and the atomic decrement orders our copy before its
// writes.
func (m *Memory) writablePage(addr uint64) *page {
	base := addr &^ uint64(PageSize-1)
	p := m.pages[base]
	if p == nil {
		if m.pages == nil {
			m.pages = make(map[uint64]*page)
		}
		p = &page{refs: 1}
		m.pages[base] = p
		return p
	}
	if atomic.LoadInt32(&p.refs) > 1 {
		np := &page{refs: 1, data: p.data}
		atomic.AddInt32(&p.refs, -1)
		m.pages[base] = np
		m.cowFaults++
		return np
	}
	return p
}

// LoadByte returns the byte at addr; unallocated memory reads as zero.
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.pageFor(addr, false)
	if p == nil {
		return 0
	}
	return p.data[addr%PageSize]
}

// StoreByte stores one byte at addr.
func (m *Memory) StoreByte(addr uint64, b byte) {
	p := m.writablePage(addr)
	p.data[addr%PageSize] = b
}

// Read fills buf with len(buf) bytes starting at addr, one page span at
// a time.
func (m *Memory) Read(addr uint64, buf []byte) {
	for len(buf) > 0 {
		off := addr % PageSize
		n := min(PageSize-int(off), len(buf))
		if p := m.pageFor(addr, false); p != nil {
			copy(buf[:n], p.data[off:])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		addr += uint64(n)
	}
}

// Write stores buf at addr, one page span at a time: each page touched
// is looked up, and copied if shared, once.
func (m *Memory) Write(addr uint64, buf []byte) {
	for len(buf) > 0 {
		n := copy(m.writablePage(addr).data[addr%PageSize:], buf)
		buf = buf[n:]
		addr += uint64(n)
	}
}

// ReadUint reads a little-endian unsigned integer of the given byte size
// (1, 2, 4 or 8) and zero-extends it to 64 bits.
func (m *Memory) ReadUint(addr uint64, size uint8) (uint64, error) {
	var buf [8]byte
	switch size {
	case 1, 2, 4, 8:
	default:
		return 0, fmt.Errorf("mem: read size %d", size)
	}
	m.Read(addr, buf[:size])
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// WriteUint writes the low size bytes of v at addr, little-endian.
func (m *Memory) WriteUint(addr uint64, size uint8, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	switch size {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("mem: write size %d", size)
	}
	m.Write(addr, buf[:size])
	return nil
}

// ReadCString reads a NUL-terminated string of at most max bytes starting
// at addr. The terminator is not included. If no terminator appears within
// max bytes the truncated content is returned.
func (m *Memory) ReadCString(addr uint64, max int) string {
	var out []byte
	for i := 0; i < max; i++ {
		b := m.LoadByte(addr + uint64(i))
		if b == 0 {
			break
		}
		out = append(out, b)
	}
	return string(out)
}

// WriteCString writes s followed by a NUL terminator at addr.
func (m *Memory) WriteCString(addr uint64, s string) {
	m.Write(addr, []byte(s))
	m.StoreByte(addr+uint64(len(s)), 0)
}

// Pages returns the sorted base addresses of allocated pages; useful for
// tests and debug dumps.
func (m *Memory) Pages() []uint64 {
	out := make([]uint64, 0, len(m.pages))
	for base := range m.pages {
		out = append(out, base)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
