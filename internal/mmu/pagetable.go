package mmu

import (
	"fmt"

	"xt910/internal/mem"
	"xt910/isa"
)

// TableBuilder is the mini-OS page-table constructor used by benchmarks that
// run under SV39 translation. It supports the three page sizes the XT-910's
// Linux port relies on (§V-E: 4KB, 2MB and 1GB huge pages) and multiple
// address spaces distinguished by ASID.
type TableBuilder struct {
	Mem  *mem.Memory
	next uint64 // bump allocator for page-table pages
	root uint64
}

// NewTableBuilder creates a builder whose page-table pages are carved from
// physical memory starting at tableBase.
func NewTableBuilder(m *mem.Memory, tableBase uint64) *TableBuilder {
	b := &TableBuilder{Mem: m, next: tableBase &^ 0xFFF}
	b.root = b.allocPage()
	return b
}

func (b *TableBuilder) allocPage() uint64 {
	p := b.next
	b.next += 4096
	// zero the page (Memory reads as zero by default, but the page may have
	// been used before in re-built scenarios)
	for i := uint64(0); i < 4096; i += 8 {
		b.Mem.Write(p+i, 8, 0)
	}
	return p
}

// Satp composes a satp value for this table with the given ASID.
func (b *TableBuilder) Satp(asid uint16) uint64 {
	return isa.MakeSatp(isa.SatpModeSV39, asid, b.root>>12)
}

// Map installs a translation of the given page size (12, 21 or 30 bits).
// perms is a combination of PteR/PteW/PteX/PteU/PteG.
func (b *TableBuilder) Map(va, pa uint64, pageBits uint, perms uint8) error {
	if va&(1<<pageBits-1) != 0 || pa&(1<<pageBits-1) != 0 {
		return fmt.Errorf("mmu: misaligned mapping va=%#x pa=%#x bits=%d", va, pa, pageBits)
	}
	leafLevel := int(pageBits-12) / 9 // 0, 1 or 2
	vpn := [3]uint64{va >> 12 & 0x1FF, va >> 21 & 0x1FF, va >> 30 & 0x1FF}
	table := b.root
	for level := 2; level > leafLevel; level-- {
		pteAddr := table + vpn[level]*8
		pte := b.Mem.Read(pteAddr, 8)
		if pte&PteV == 0 {
			next := b.allocPage()
			b.Mem.Write(pteAddr, 8, next>>12<<10|PteV)
			table = next
		} else {
			if pte&(PteR|PteX) != 0 {
				return fmt.Errorf("mmu: mapping conflict at va=%#x level=%d", va, level)
			}
			table = pte >> 10 << 12
		}
	}
	pteAddr := table + vpn[leafLevel]*8
	b.Mem.Write(pteAddr, 8, pa>>12<<10|uint64(perms)|PteV|PteA|PteD)
	return nil
}

// IdentityMap maps [base, base+size) onto itself using the largest page size
// that fits alignment when huge is true, or 4K pages otherwise.
func (b *TableBuilder) IdentityMap(base, size uint64, perms uint8, huge bool) error {
	end := base + size
	va := base &^ 0xFFF
	for va < end {
		bits := uint(12)
		if huge {
			switch {
			case va&(1<<30-1) == 0 && va+1<<30 <= end:
				bits = 30
			case va&(1<<21-1) == 0 && va+1<<21 <= end:
				bits = 21
			}
		}
		if err := b.Map(va, va, bits, perms); err != nil {
			return err
		}
		va += 1 << bits
	}
	return nil
}

// IdentityPlusOffset builds the standard S-mode test layout shared by the
// paged cosim profile and the MMU tests: an identity RWX mapping of
// [0, physSize) in 4K pages, plus a read-write alias window mapping
// [offset, offset+physSize) onto the same physical range. The alias window
// is deliberately non-executable and gives every physical line two virtual
// addresses, which is what exposes VA-vs-PA confusion in reservation and
// dirty-line tracking. tableBase itself must lie outside [0, physSize) so
// the guest cannot scribble over its own page tables.
func IdentityPlusOffset(m *mem.Memory, tableBase, physSize, offset uint64) (*TableBuilder, error) {
	b := NewTableBuilder(m, tableBase)
	if err := b.IdentityMap(0, physSize, PteR|PteW|PteX, false); err != nil {
		return nil, err
	}
	for va := uint64(0); va < physSize; va += 4096 {
		if err := b.Map(offset+va, va, 12, PteR|PteW); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// ASIDAllocator models the OS-side ASID assignment policy whose behaviour
// §V-E measures: when the ASID space wraps, every TLB must be flushed. The
// XT-910 widens the field to 16 bits so wraps (and hence flushes) become
// ~10× rarer under context-switch-heavy loads.
type ASIDAllocator struct {
	Width  int // in bits: 8 for the baseline, 16 for the XT-910
	next   uint64
	Wraps  uint64 // each wrap forces a global TLB flush
	perGen map[uint64]uint16
	gen    uint64
}

// NewASIDAllocator returns an allocator with the given field width.
func NewASIDAllocator(width int) *ASIDAllocator {
	return &ASIDAllocator{Width: width, next: 1, perGen: make(map[uint64]uint16)}
}

// Assign returns the ASID for process pid, allocating a fresh one if the
// process has none in the current generation. flush reports that the
// allocation wrapped the ASID space and all TLBs must be flushed.
func (a *ASIDAllocator) Assign(pid uint64) (asid uint16, flush bool) {
	if got, ok := a.perGen[pid]; ok {
		return got, false
	}
	max := uint64(1)<<a.Width - 1
	if a.next > max {
		// generation rollover: flush everything, restart numbering (the
		// map is cleared, not re-made: every generation fills it again)
		a.next = 1
		a.gen++
		a.Wraps++
		clear(a.perGen)
		flush = true
	}
	asid = uint16(a.next)
	a.next++
	a.perGen[pid] = asid
	return asid, flush
}
