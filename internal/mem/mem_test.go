package mem

import (
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, v uint64, sizeSel uint8) bool {
		size := []int{1, 2, 4, 8}[sizeSel%4]
		addr &= 0xFFFFFFF
		m.Write(addr, size, v)
		got := m.Read(addr, size)
		want := v
		if size < 8 {
			want = v & (1<<(8*size) - 1)
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := NewMemory()
	addr := uint64(0x1FFD) // 3 bytes before a page boundary
	m.Write(addr, 8, 0x1122334455667788)
	if got := m.Read(addr, 8); got != 0x1122334455667788 {
		t.Fatalf("cross-page read = %#x", got)
	}
	if got := m.Read(0x2000, 1); got != 0x55 {
		t.Fatalf("byte on second page = %#x", got)
	}
}

func TestUntouchedReadsZero(t *testing.T) {
	m := NewMemory()
	if m.Read(0xDEADBEEF, 8) != 0 {
		t.Fatal("untouched memory must read zero")
	}
	if m.FootprintBytes() != 0 {
		t.Fatal("reads must not allocate")
	}
}

// TestPageMemo covers the one-entry last-page memo behind every access: a
// snapshot restore must not leave it pointing at a page that was replaced,
// and reading an untouched page must neither allocate nor be remembered.
func TestPageMemo(t *testing.T) {
	m := NewMemory()
	m.Write(0x3008, 8, 0x1111)
	snap := m.Snapshot()
	m.Write(0x3008, 8, 0x2222) // memo hit on page 3
	if got := m.Read(0x3008, 8); got != 0x2222 {
		t.Fatalf("read through the memo = %#x", got)
	}
	m.RestoreSnapshot(snap)
	if got := m.Read(0x3008, 8); got != 0x1111 {
		t.Fatalf("after restore read %#x, want the snapshot's 0x1111 (stale memo?)", got)
	}
	m.Write(0x3010, 8, 0x3333)
	if got := m.Snapshot()[3][0x10]; got != 0x33 {
		t.Fatalf("write after restore landed outside the restored page: %#x", got)
	}

	before := m.FootprintBytes()
	if m.Read(0x9000, 8) != 0 || m.LoadByte(0x9004) != 0 {
		t.Fatal("untouched page must read zero")
	}
	if m.FootprintBytes() != before {
		t.Fatal("reading an untouched page allocated it")
	}
	if got := m.Read(0x3008, 8); got != 0x1111 {
		t.Fatalf("read after an untouched-page miss = %#x: memo poisoned", got)
	}
	m.Write(0x9000, 1, 0x7)
	if got := m.Read(0x9000, 1); got != 0x7 {
		t.Fatalf("page allocated after a read miss reads %#x", got)
	}
}

func TestBytesHelpers(t *testing.T) {
	m := NewMemory()
	src := []byte("the quick brown fox")
	m.StoreBytes(0x4FFA, src) // crosses a page
	dst := make([]byte, len(src))
	m.LoadBytes(0x4FFA, dst)
	if string(dst) != string(src) {
		t.Fatalf("got %q", dst)
	}
}

func TestDRAMLatency(t *testing.T) {
	d := NewDRAM()
	done := d.Access(1000)
	if done != 1200 {
		t.Fatalf("first access done at %d, want 1200 (200-cycle latency, §X)", done)
	}
	// immediate second access must respect the channel gap
	done2 := d.Access(1000)
	if done2 != 1204 {
		t.Fatalf("second access done at %d, want 1204", done2)
	}
	if d.Accesses != 2 {
		t.Fatalf("accesses = %d", d.Accesses)
	}
}

func TestDRAMBandwidthSaturation(t *testing.T) {
	d := &DRAM{Latency: 200, GapCycles: 10}
	var last uint64
	for i := 0; i < 100; i++ {
		last = d.Access(0)
	}
	// 100 back-to-back requests serialize on the channel: 99*10 + 200
	if last != 99*10+200 {
		t.Fatalf("saturated completion = %d, want %d", last, 99*10+200)
	}
}

// TestReleaseZeroesPages: Release hands every page on all zero and leaves the
// memory reading as empty; a memory built afterwards reads zero everywhere,
// whichever pages it picks up.
func TestReleaseZeroesPages(t *testing.T) {
	m := NewMemory()
	for a := uint64(0); a < 64*PageSize; a += 24 {
		m.Write(a, 8, ^a)
	}
	m.StoreBytes(0x7FFF0, []byte("a string across a page boundary, twice over: 0x80000 and on"))
	var pages []*[PageSize]byte
	for _, p := range m.pages {
		pages = append(pages, p)
	}
	m.Release()
	for _, p := range pages {
		if *p != ([PageSize]byte{}) {
			t.Fatal("Release left a dirty page behind")
		}
	}
	if m.FootprintBytes() != 0 || m.Read(0x18, 8) != 0 {
		t.Fatal("a released memory must read as empty")
	}
	fresh := NewMemory()
	fresh.StoreByte(0x3000, 1) // picks a page up
	for a := uint64(0x3001); a < 0x4000; a++ {
		if fresh.LoadByte(a) != 0 {
			t.Fatalf("a page picked up after a release reads %#x at %#x", fresh.LoadByte(a), a)
		}
	}
}

// TestStoreBytesSpansPages: the page-at-a-time copy lands every byte where
// the byte-at-a-time one did.
func TestStoreBytesSpansPages(t *testing.T) {
	src := make([]byte, 3*PageSize+17)
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	m := NewMemory()
	m.StoreBytes(PageSize-5, src)
	for i, b := range src {
		if got := m.LoadByte(PageSize - 5 + uint64(i)); got != b {
			t.Fatalf("byte %d: got %#x want %#x", i, got, b)
		}
	}
	if m.FootprintBytes() != 5*PageSize {
		t.Fatalf("footprint %d, want five pages", m.FootprintBytes())
	}
	m.StoreBytes(0x100000, nil)
	if m.FootprintBytes() != 5*PageSize {
		t.Fatal("an empty store must not touch a page")
	}
}
