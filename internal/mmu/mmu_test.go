package mmu

import (
	"math/rand"
	"testing"

	"xt910/internal/mem"
	"xt910/isa"
)

func newEnv(t *testing.T) (*mem.Memory, *TableBuilder) {
	t.Helper()
	m := mem.NewMemory()
	return m, NewTableBuilder(m, 0x100000)
}

func plainRead(m *mem.Memory) ReadMem {
	return func(pa uint64) uint64 { return m.Read(pa, 8) }
}

func TestWalk4K(t *testing.T) {
	m, tb := newEnv(t)
	if err := tb.Map(0x40000000, 0x10000, 12, PteR|PteW); err != nil {
		t.Fatal(err)
	}
	res, err := Walk(plainRead(m), tb.Satp(1), 0x40000ABC, AccLoad, isa.PrivS)
	if err != nil {
		t.Fatal(err)
	}
	if res.PA != 0x10ABC || res.PageBits != 12 {
		t.Fatalf("pa=%#x bits=%d", res.PA, res.PageBits)
	}
	if len(res.PTEAddrs) != 3 {
		t.Fatalf("4K walk should read 3 PTEs, read %d", len(res.PTEAddrs))
	}
}

func TestWalkSuperpages(t *testing.T) {
	m, tb := newEnv(t)
	if err := tb.Map(0x80000000, 0x200000, 21, PteR|PteW); err != nil {
		t.Fatal(err)
	}
	if err := tb.Map(0x100000000, 0x40000000, 30, PteR|PteX); err != nil {
		t.Fatal(err)
	}
	res, err := Walk(plainRead(m), tb.Satp(1), 0x80012345, AccStore, isa.PrivS)
	if err != nil {
		t.Fatal(err)
	}
	if res.PA != 0x212345 || res.PageBits != 21 {
		t.Fatalf("2M: pa=%#x bits=%d", res.PA, res.PageBits)
	}
	if len(res.PTEAddrs) != 2 {
		t.Fatalf("2M walk reads 2 PTEs, read %d", len(res.PTEAddrs))
	}
	res, err = Walk(plainRead(m), tb.Satp(1), 0x10ABCDEF0, AccFetch, isa.PrivS)
	if err != nil {
		t.Fatal(err)
	}
	if res.PA != 0x40000000|0xABCDEF0 || res.PageBits != 30 {
		t.Fatalf("1G: pa=%#x bits=%d", res.PA, res.PageBits)
	}
	if len(res.PTEAddrs) != 1 {
		t.Fatalf("1G walk reads 1 PTE, read %d", len(res.PTEAddrs))
	}
}

func TestWalkPermissions(t *testing.T) {
	m, tb := newEnv(t)
	if err := tb.Map(0x1000, 0x1000, 12, PteR); err != nil {
		t.Fatal(err)
	}
	if _, err := Walk(plainRead(m), tb.Satp(0), 0x1000, AccStore, isa.PrivS); err == nil {
		t.Fatal("store to read-only page must fault")
	}
	if _, err := Walk(plainRead(m), tb.Satp(0), 0x1000, AccFetch, isa.PrivS); err == nil {
		t.Fatal("fetch from non-executable page must fault")
	}
	// user-bit enforcement
	if _, err := Walk(plainRead(m), tb.Satp(0), 0x1000, AccLoad, isa.PrivU); err == nil {
		t.Fatal("U-mode access to S page must fault")
	}
}

func TestWalkUnmappedFaults(t *testing.T) {
	m, tb := newEnv(t)
	_, err := Walk(plainRead(m), tb.Satp(0), 0x12345000, AccLoad, isa.PrivS)
	pf, ok := err.(*PageFault)
	if !ok {
		t.Fatalf("want PageFault, got %v", err)
	}
	if pf.Cause() != isa.ExcLoadPageFault {
		t.Fatalf("cause = %d", pf.Cause())
	}
}

func TestMicroTLBLRU(t *testing.T) {
	tlb := NewMicroTLB(2)
	e := func(vpn uint64) Entry {
		return Entry{vpnTag: vpn, pageBits: 12, ppn: vpn, perms: PteR}
	}
	tlb.Insert(e(1))
	tlb.Insert(e(2))
	if _, ok := tlb.Lookup(1<<12, 0); !ok {
		t.Fatal("entry 1 should hit")
	}
	tlb.Insert(e(3)) // evicts 2 (LRU)
	if _, ok := tlb.Lookup(2<<12, 0); ok {
		t.Fatal("entry 2 should have been evicted")
	}
	if _, ok := tlb.Lookup(1<<12, 0); !ok {
		t.Fatal("entry 1 should survive")
	}
}

func TestTLBASIDMatching(t *testing.T) {
	tlb := NewMicroTLB(8)
	tlb.Insert(Entry{vpnTag: 5, asid: 1, pageBits: 12, ppn: 50, perms: PteR})
	tlb.Insert(Entry{vpnTag: 5, asid: 2, pageBits: 12, ppn: 60, perms: PteR})
	e1, ok1 := tlb.Lookup(5<<12, 1)
	e2, ok2 := tlb.Lookup(5<<12, 2)
	if !ok1 || !ok2 || e1.ppn != 50 || e2.ppn != 60 {
		t.Fatal("ASID-tagged entries must coexist")
	}
	tlb.FlushASID(1)
	if _, ok := tlb.Lookup(5<<12, 1); ok {
		t.Fatal("asid 1 should be flushed")
	}
	if _, ok := tlb.Lookup(5<<12, 2); !ok {
		t.Fatal("asid 2 must survive")
	}
}

func TestGlobalEntriesSurviveASIDFlush(t *testing.T) {
	tlb := NewJointTLB(64, 4)
	tlb.Insert(Entry{vpnTag: 7, asid: 3, global: true, pageBits: 12, ppn: 70, perms: PteR})
	tlb.FlushASID(3)
	if _, _, ok := tlb.Lookup(7<<12, 3); !ok {
		t.Fatal("global entry must survive ASID flush")
	}
}

func TestJointTLBProbeOrder(t *testing.T) {
	tlb := NewJointTLB(64, 4)
	tlb.Insert(Entry{vpnTag: 0x80000000 >> 21, asid: 0, pageBits: 21, ppn: 1, perms: PteR})
	_, probes, ok := tlb.Lookup(0x80012345, 0)
	if !ok || probes != 2 {
		t.Fatalf("2M entry must hit on the second probe round: ok=%v probes=%d", ok, probes)
	}
	tlb.Insert(Entry{vpnTag: 1, asid: 0, pageBits: 12, ppn: 2, perms: PteR})
	_, probes, ok = tlb.Lookup(0x1400, 0)
	if !ok || probes != 1 {
		t.Fatalf("4K probes first: ok=%v probes=%d", ok, probes)
	}
}

func TestMMUTranslateTiming(t *testing.T) {
	m, tb := newEnv(t)
	if err := tb.IdentityMap(0, 0x40000, PteR|PteW|PteX, false); err != nil {
		t.Fatal(err)
	}
	reads := 0
	mmuU := New(func(pa uint64, now uint64) (uint64, uint64) {
		reads++
		return m.Read(pa, 8), now + 20 // pretend every PTE read costs 20 cycles
	})
	mmuU.Satp = tb.Satp(1)
	mmuU.Priv = isa.PrivS

	// first access: full walk (3 PTE reads after 3 jTLB probe rounds)
	_, done, err := mmuU.Translate(0x2000, AccLoad, 100)
	if err != nil {
		t.Fatal(err)
	}
	if reads != 3 {
		t.Fatalf("walk read %d PTEs", reads)
	}
	if done <= 100 {
		t.Fatal("walk must cost cycles")
	}
	// second access: micro-TLB hit, free
	_, done2, err := mmuU.Translate(0x2008, AccLoad, 200)
	if err != nil || done2 != 200 {
		t.Fatalf("uTLB hit should be free: done=%d err=%v", done2, err)
	}
	if mmuU.Stats.Walks != 1 || mmuU.Stats.MicroHits != 1 {
		t.Fatalf("stats: %+v", mmuU.Stats)
	}
}

func TestMMUPrefill(t *testing.T) {
	m, tb := newEnv(t)
	if err := tb.IdentityMap(0, 0x40000, PteR|PteW, false); err != nil {
		t.Fatal(err)
	}
	mmuU := New(func(pa uint64, now uint64) (uint64, uint64) {
		return m.Read(pa, 8), now + 20
	})
	mmuU.Satp = tb.Satp(1)
	mmuU.Priv = isa.PrivS
	mmuU.Prefill(0x3000)
	if mmuU.Stats.Prefills != 1 {
		t.Fatal("prefill should install an entry")
	}
	_, done, err := mmuU.Translate(0x3000, AccLoad, 500)
	if err != nil || done != 500 {
		t.Fatalf("prefilled translation should be a free uTLB hit: %d %v", done, err)
	}
	if mmuU.Stats.Walks != 0 {
		t.Fatal("no demand walk expected after prefill")
	}
}

func TestASIDAllocatorWraps(t *testing.T) {
	// Simulate process churn: many short-lived processes, as in the §V-E
	// context-switch measurement.
	churn := func(width int, procs int) uint64 {
		a := NewASIDAllocator(width)
		for pid := 0; pid < procs; pid++ {
			a.Assign(uint64(pid))
		}
		return a.Wraps
	}
	w8 := churn(8, 100000)
	w16 := churn(16, 100000)
	if w8 == 0 {
		t.Fatal("8-bit allocator must wrap under churn")
	}
	if w16 >= w8 {
		t.Fatalf("16-bit ASID must wrap far less: 8-bit=%d 16-bit=%d", w8, w16)
	}
	ratio := float64(w8) / float64(w16+1)
	if ratio < 10 {
		t.Fatalf("flush reduction ratio %.1f, want >= 10 (paper: ~10x)", ratio)
	}
}

func TestWalkSuperpageMisaligned(t *testing.T) {
	m, tb := newEnv(t)
	// Hand-craft a level-1 leaf whose PPN is not 2M-aligned: the builder
	// refuses to create one, but a buggy or hostile guest table can.
	if err := tb.Map(0x80000000, 0x200000, 21, PteR|PteW); err != nil {
		t.Fatal(err)
	}
	res, err := Walk(plainRead(m), tb.Satp(0), 0x80000000, AccLoad, isa.PrivS)
	if err != nil {
		t.Fatal(err)
	}
	pteAddr := res.PTEAddrs[len(res.PTEAddrs)-1]
	pte := m.Read(pteAddr, 8)
	m.Write(pteAddr, 8, pte|1<<10) // PPN[0] |= 1: misaligned superpage
	_, err = Walk(plainRead(m), tb.Satp(0), 0x80000000, AccStore, isa.PrivS)
	pf, ok := err.(*PageFault)
	if !ok {
		t.Fatalf("misaligned superpage must fault, got %v", err)
	}
	if pf.Cause() != isa.ExcStorePageFault || pf.VA != 0x80000000 {
		t.Fatalf("cause=%d va=%#x", pf.Cause(), pf.VA)
	}
}

func TestWalkADBitsModeledAsSet(t *testing.T) {
	m, tb := newEnv(t)
	if err := tb.Map(0x3000, 0x5000, 12, PteR|PteW); err != nil {
		t.Fatal(err)
	}
	res, err := Walk(plainRead(m), tb.Satp(0), 0x3000, AccLoad, isa.PrivS)
	if err != nil {
		t.Fatal(err)
	}
	// The model treats A/D as hardware-managed and always set (the builder
	// pre-sets them); a cleared A or D bit neither faults nor gets written
	// back — the walker is read-only. Pin both properties.
	pteAddr := res.PTEAddrs[len(res.PTEAddrs)-1]
	pte := m.Read(pteAddr, 8)
	m.Write(pteAddr, 8, pte&^uint64(PteA|PteD))
	if _, err := Walk(plainRead(m), tb.Satp(0), 0x3008, AccStore, isa.PrivS); err != nil {
		t.Fatalf("A/D-clear store should translate in the always-set model: %v", err)
	}
	if got := m.Read(pteAddr, 8); got != pte&^uint64(PteA|PteD) {
		t.Fatalf("walker must not write PTEs back: %#x", got)
	}
}

// TestIdentityPlusOffsetAliases pins the layout the paged fuzz profile boots
// with: identity RWX, an RW alias window at offset, and — the property the
// LR/SC checker depends on — both virtual views of one line landing in the
// same physical reservation granule.
func TestIdentityPlusOffsetAliases(t *testing.T) {
	m := mem.NewMemory()
	const physSize, offset = 0xA0000, 0x40000000
	tb, err := IdentityPlusOffset(m, 0x100000, physSize, offset)
	if err != nil {
		t.Fatal(err)
	}
	idRes, err := Walk(plainRead(m), tb.Satp(1), 0x5018, AccStore, isa.PrivS)
	if err != nil {
		t.Fatal(err)
	}
	alRes, err := Walk(plainRead(m), tb.Satp(1), offset+0x5018, AccStore, isa.PrivS)
	if err != nil {
		t.Fatal(err)
	}
	if idRes.PA != 0x5018 || alRes.PA != idRes.PA {
		t.Fatalf("alias pa=%#x, identity pa=%#x", alRes.PA, idRes.PA)
	}
	if idRes.PA>>6 != alRes.PA>>6 {
		t.Fatal("aliases must share a physical reservation granule")
	}
	// VA granules differ even though the PA granule is shared
	if (uint64(0x5018) >> 6) == (offset+0x5018)>>6 {
		t.Fatal("test premise broken: VA granules should differ")
	}
	// the alias window must not be executable, and identity must be
	if _, err := Walk(plainRead(m), tb.Satp(1), offset+0x5000, AccFetch, isa.PrivS); err == nil {
		t.Fatal("fetch from alias window must fault")
	}
	if _, err := Walk(plainRead(m), tb.Satp(1), 0x5000, AccFetch, isa.PrivS); err != nil {
		t.Fatalf("identity fetch: %v", err)
	}
	// a page-crossing 8-byte window translates page by page: last byte of
	// one page and first of the next both map, contiguously here
	a, err := Walk(plainRead(m), tb.Satp(1), offset+0x5FF8, AccStore, isa.PrivS)
	if err != nil {
		t.Fatal(err)
	}
	bRes, err := Walk(plainRead(m), tb.Satp(1), offset+0x6000, AccStore, isa.PrivS)
	if err != nil {
		t.Fatal(err)
	}
	if a.PA+8 != bRes.PA {
		t.Fatalf("page-crossing pair: %#x then %#x", a.PA, bRes.PA)
	}
	// beyond the mapped window: faults with the faulting VA reported
	_, err = Walk(plainRead(m), tb.Satp(1), offset+physSize, AccLoad, isa.PrivS)
	pf, ok := err.(*PageFault)
	if !ok || pf.VA != offset+physSize {
		t.Fatalf("unmapped alias access: %v", err)
	}
}

func TestWalkRandomizedAgainstTables(t *testing.T) {
	m, tb := newEnv(t)
	rng := rand.New(rand.NewSource(99))
	type mapping struct {
		va, pa uint64
		bits   uint
	}
	var maps []mapping
	for i := 0; i < 64; i++ {
		bits := []uint{12, 12, 12, 21}[rng.Intn(4)]
		va := (uint64(rng.Intn(1<<17)) << bits) & (1<<38 - 1)
		pa := uint64(rng.Intn(1<<16)) << bits
		if err := tb.Map(va, pa, bits, PteR|PteW); err != nil {
			continue // conflicts possible; skip
		}
		maps = append(maps, mapping{va, pa, bits})
	}
	for _, mp := range maps {
		off := uint64(rng.Intn(1 << mp.bits))
		res, err := Walk(plainRead(m), tb.Satp(0), mp.va+off, AccLoad, isa.PrivS)
		if err != nil {
			t.Fatalf("va=%#x: %v", mp.va+off, err)
		}
		if res.PA != mp.pa+off {
			t.Fatalf("va=%#x -> %#x, want %#x", mp.va+off, res.PA, mp.pa+off)
		}
	}
}

// TestJointTLBReleaseZeroesEntries: Release hands the entry array on in the
// state NewJointTLB expects, whatever was inserted and flushed before.
func TestJointTLBReleaseZeroesEntries(t *testing.T) {
	tlb := NewJointTLB(1024, 4)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		bits := probeOrder[rng.Intn(3)]
		tlb.Insert(Entry{vpnTag: uint64(rng.Intn(1 << 20)), asid: uint16(rng.Intn(4)),
			global: i%5 == 0, pageBits: bits, ppn: uint64(i), perms: 0xF})
		if i%100 == 0 {
			tlb.FlushASID(uint16(rng.Intn(4)))
		}
	}
	entries := tlb.entries
	tlb.Release()
	for i := range entries {
		if entries[i] != (Entry{}) {
			t.Fatalf("Release left entry %d behind: %+v", i, entries[i])
		}
	}
	fresh := NewJointTLB(1024, 4)
	if _, _, ok := fresh.Lookup(0, 0); ok {
		t.Fatal("a TLB built after a release must start empty")
	}
}
