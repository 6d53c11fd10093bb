package mem

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"
)

func TestZeroFill(t *testing.T) {
	m := New()
	if got := m.LoadByte(0xdeadbeef); got != 0 {
		t.Errorf("unallocated byte = %d, want 0", got)
	}
	v, err := m.ReadUint(0x1000, 8)
	if err != nil || v != 0 {
		t.Errorf("unallocated word = %d, %v", v, err)
	}
}

func TestReadStoreByte(t *testing.T) {
	m := New()
	m.StoreByte(42, 0xab)
	if got := m.LoadByte(42); got != 0xab {
		t.Errorf("LoadByte = %#x, want 0xab", got)
	}
}

func TestCrossPageWrite(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 3)
	data := []byte{1, 2, 3, 4, 5, 6}
	m.Write(addr, data)
	got := make([]byte, len(data))
	m.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Errorf("cross-page read = %v, want %v", got, data)
	}
	if m.PageCount() != 2 {
		t.Errorf("PageCount = %d, want 2", m.PageCount())
	}
}

func TestUintSizes(t *testing.T) {
	m := New()
	const v = 0x1122334455667788
	for _, size := range []uint8{1, 2, 4, 8} {
		if err := m.WriteUint(0x100, size, v); err != nil {
			t.Fatalf("WriteUint size %d: %v", size, err)
		}
		got, err := m.ReadUint(0x100, size)
		if err != nil {
			t.Fatalf("ReadUint size %d: %v", size, err)
		}
		want := uint64(v) & (^uint64(0) >> (64 - 8*uint(size)))
		if got != want {
			t.Errorf("size %d: got %#x, want %#x", size, got, want)
		}
	}
}

func TestUintBadSize(t *testing.T) {
	m := New()
	if _, err := m.ReadUint(0, 3); err == nil {
		t.Error("ReadUint size 3 should fail")
	}
	if err := m.WriteUint(0, 5, 1); err == nil {
		t.Error("WriteUint size 5 should fail")
	}
}

func TestCString(t *testing.T) {
	m := New()
	m.WriteCString(0x2000, "hello")
	if got := m.ReadCString(0x2000, 64); got != "hello" {
		t.Errorf("ReadCString = %q", got)
	}
	// Truncation without a terminator.
	m.Write(0x3000, []byte{'a', 'b', 'c'})
	m.StoreByte(0x3003, 'd') // no NUL in range
	if got := m.ReadCString(0x3000, 3); got != "abc" {
		t.Errorf("truncated ReadCString = %q, want abc", got)
	}
	// Empty string.
	m.WriteCString(0x4000, "")
	if got := m.ReadCString(0x4000, 8); got != "" {
		t.Errorf("empty ReadCString = %q", got)
	}
}

func TestClone(t *testing.T) {
	m := New()
	m.WriteCString(0x100, "parent")
	c := m.Clone()
	c.WriteCString(0x100, "childx")
	if got := m.ReadCString(0x100, 16); got != "parent" {
		t.Errorf("parent memory changed by clone write: %q", got)
	}
	if got := c.ReadCString(0x100, 16); got != "childx" {
		t.Errorf("clone memory = %q", got)
	}
}

func TestReset(t *testing.T) {
	m := New()
	m.StoreByte(1, 1)
	m.Reset()
	if m.PageCount() != 0 || m.LoadByte(1) != 0 {
		t.Error("Reset did not clear memory")
	}
	// A reset memory must be fully usable again, like the zero value.
	m.StoreByte(2, 2)
	if m.LoadByte(2) != 2 {
		t.Error("Reset memory not writable")
	}
}

func TestZeroValueUsable(t *testing.T) {
	// The documented invariant: the zero value is an empty memory ready
	// for use, exactly what Reset re-arms a used memory back to.
	var m Memory
	if m.LoadByte(123) != 0 || m.PageCount() != 0 {
		t.Error("zero value not an empty memory")
	}
	m.StoreByte(123, 7)
	if m.LoadByte(123) != 7 {
		t.Error("zero value not writable")
	}
	c := m.Clone()
	if c.LoadByte(123) != 7 {
		t.Error("clone of zero-value-backed memory lost data")
	}

	var z Memory
	z.Reset() // must not panic, must stay usable
	z.StoreByte(9, 9)
	if z.LoadByte(9) != 9 {
		t.Error("Reset zero value not writable")
	}

	var c2 Memory
	if c3 := c2.Clone(); c3.PageCount() != 0 {
		t.Error("clone of empty zero value not empty")
	}
}

func TestCloneSharesPages(t *testing.T) {
	m := New()
	for i := 0; i < 8; i++ {
		m.StoreByte(uint64(i)*PageSize, byte(i+1))
	}
	c := m.Clone()
	if c.PageCount() != 8 {
		t.Fatalf("clone PageCount = %d, want 8", c.PageCount())
	}
	if got := c.SharedPages(); got != 8 {
		t.Errorf("clone SharedPages = %d, want 8 (all shared before any write)", got)
	}
	if c.COWFaults() != 0 {
		t.Errorf("COWFaults = %d before any write, want 0", c.COWFaults())
	}

	// Writing one byte must fault exactly one page and leave the rest shared.
	c.StoreByte(3*PageSize+5, 0xff)
	if got := c.COWFaults(); got != 1 {
		t.Errorf("COWFaults after one write = %d, want 1", got)
	}
	if got := c.SharedPages(); got != 7 {
		t.Errorf("SharedPages after one write = %d, want 7", got)
	}
	// A second write to the now-private page must not fault again.
	c.StoreByte(3*PageSize+6, 0xfe)
	if got := c.COWFaults(); got != 1 {
		t.Errorf("COWFaults after second write to same page = %d, want 1", got)
	}
	// Parent sees none of it.
	if m.LoadByte(3*PageSize+5) != 0 || m.LoadByte(3*PageSize) != 4 {
		t.Error("parent page changed by clone write")
	}
}

func TestCloneChainIsolation(t *testing.T) {
	a := New()
	a.WriteCString(0x100, "aaaa")
	b := a.Clone()
	c := b.Clone()
	b.WriteCString(0x100, "bbbb")
	c.WriteCString(0x100, "cccc")
	a.WriteCString(0x100, "AAAA")
	for _, tc := range []struct {
		m    *Memory
		want string
	}{{a, "AAAA"}, {b, "bbbb"}, {c, "cccc"}} {
		if got := tc.m.ReadCString(0x100, 16); got != tc.want {
			t.Errorf("chain member = %q, want %q", got, tc.want)
		}
	}
}

func TestResetReleasesSharing(t *testing.T) {
	m := New()
	m.StoreByte(0, 1)
	c := m.Clone()
	if m.SharedPages() != 1 {
		t.Fatal("page not shared after clone")
	}
	c.Reset()
	if got := m.SharedPages(); got != 0 {
		t.Errorf("SharedPages after clone Reset = %d, want 0", got)
	}
	// With sharing released, a parent write must not count as a fault.
	m.StoreByte(0, 2)
	if m.COWFaults() != 0 {
		t.Errorf("COWFaults = %d after writing unshared page, want 0", m.COWFaults())
	}
}

func TestPagesSorted(t *testing.T) {
	m := New()
	m.StoreByte(5*PageSize, 1)
	m.StoreByte(1*PageSize, 1)
	m.StoreByte(3*PageSize, 1)
	pages := m.Pages()
	want := []uint64{1 * PageSize, 3 * PageSize, 5 * PageSize}
	if len(pages) != len(want) {
		t.Fatalf("Pages len = %d, want %d", len(pages), len(want))
	}
	for i := range want {
		if pages[i] != want[i] {
			t.Errorf("Pages[%d] = %#x, want %#x", i, pages[i], want[i])
		}
	}
}

func TestQuickWriteReadRoundTrip(t *testing.T) {
	m := New()
	f := func(addr uint64, data []byte) bool {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		// Avoid wrapping the address space during the check.
		addr %= 1 << 40
		m.Write(addr, data)
		got := make([]byte, len(data))
		m.Read(addr, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickUintRoundTrip(t *testing.T) {
	m := New()
	f := func(addr uint64, v uint64, sizeSel uint8) bool {
		size := []uint8{1, 2, 4, 8}[sizeSel%4]
		addr %= 1 << 40
		if err := m.WriteUint(addr, size, v); err != nil {
			return false
		}
		got, err := m.ReadUint(addr, size)
		if err != nil {
			return false
		}
		want := v & (^uint64(0) >> (64 - 8*uint(size)))
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFrozenPagesNotCounted freezes a boot memory and clones it many
// times: no counter on its pages may move, every clone's first write to
// a frozen page copies it (one COW fault, the boot bytes untouched), a
// clone of a clone still shares the frozen page, and Reset releases
// nothing.
func TestFrozenPagesNotCounted(t *testing.T) {
	boot := New()
	boot.WriteCString(0x10, "boot")
	boot.StoreByte(PageSize, 7)
	boot.Freeze()
	p := boot.pages[0]
	refs := p.refs

	clones := make([]*Memory, 1000)
	for i := range clones {
		clones[i] = boot.Clone()
	}
	if p.refs != refs {
		t.Fatalf("refs = %d after %d clones, want %d", p.refs, len(clones), refs)
	}
	if got := clones[0].SharedPages(); got != 2 {
		t.Errorf("clone SharedPages = %d, want 2", got)
	}

	c := clones[0]
	c.WriteCString(0x10, "mine")
	c.WriteCString(0x14, "!")
	if c.COWFaults() != 1 || c.pages[0] == p {
		t.Errorf("clone write: %d COW faults, page copied %v; want 1 and a copy", c.COWFaults(), c.pages[0] != p)
	}
	grand := clones[1].Clone()
	if grand.pages[0] != p {
		t.Error("a clone of a clone does not share the frozen page")
	}
	grand.StoreByte(0x10, 'X')
	if grand.COWFaults() != 1 {
		t.Errorf("clone of a clone: %d COW faults, want 1", grand.COWFaults())
	}
	for _, c := range clones {
		c.Reset()
	}
	if p.refs != refs {
		t.Errorf("refs = %d after the clones' Reset, want %d", p.refs, refs)
	}
	if got := boot.ReadCString(0x10, 8); got != "boot" || boot.LoadByte(PageSize) != 7 {
		t.Errorf("boot memory reads %q, %d after the clones wrote, want \"boot\", 7", got, boot.LoadByte(PageSize))
	}
}

// TestPageHeapCost bounds the heap one allocated page costs: its 4 KiB
// of data plus the header and map entry, not the next size class up.
func TestPageHeapCost(t *testing.T) {
	const pages = 1000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := New()
	for i := uint64(0); i < pages; i++ {
		m.StoreByte(i*PageSize, 1)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / pages; per > 4200 {
		t.Errorf("heap grew %d B per page, want at most 4200", per)
	}
}
