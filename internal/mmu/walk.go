// Package mmu implements the XT-910 memory-management unit: the SV39 page
// table walker, the multi-size (4K/2M/1G) micro-TLB and joint-TLB hierarchy
// described in §V-D, 16-bit ASIDs (§V-E), physical memory protection, and a
// mini-OS page-table builder used by the benchmarks that run with paging on.
package mmu

import (
	"fmt"

	"xt910/isa"
)

// Access distinguishes the three translation request types.
type Access int

// Access kinds.
const (
	AccFetch Access = iota
	AccLoad
	AccStore
)

func (a Access) String() string {
	switch a {
	case AccFetch:
		return "fetch"
	case AccLoad:
		return "load"
	case AccStore:
		return "store"
	}
	return "?"
}

// PTE flag bits (SV39).
const (
	PteV = 1 << 0
	PteR = 1 << 1
	PteW = 1 << 2
	PteX = 1 << 3
	PteU = 1 << 4
	PteG = 1 << 5
	PteA = 1 << 6
	PteD = 1 << 7
)

// PageFault describes a translation failure; it maps onto the RISC-V
// page-fault exception for the access type.
type PageFault struct {
	VA     uint64
	Access Access
}

func (e *PageFault) Error() string {
	return fmt.Sprintf("mmu: %s page fault at %#x", e.Access, e.VA)
}

// Cause returns the RISC-V exception cause code for the fault.
func (e *PageFault) Cause() int {
	switch e.Access {
	case AccFetch:
		return isa.ExcInstPageFault
	case AccStore:
		return isa.ExcStorePageFault
	}
	return isa.ExcLoadPageFault
}

// ReadMem reads an aligned 64-bit word of physical memory. The walker uses it
// for PTE fetches; callers that want timing charge it per call.
type ReadMem func(pa uint64) uint64

// WalkResult describes a successful SV39 translation.
type WalkResult struct {
	PA       uint64   // translated physical address
	PageBits uint     // 12 (4K), 21 (2M) or 30 (1G) — §V-D multi-size pages
	Perms    uint8    // PTE R/W/X/U bits
	Global   bool     // PTE G bit
	PTEAddrs []uint64 // physical addresses of the PTEs read (for timing)
}

// Walk performs a full SV39 page-table walk. It validates alignment of
// superpage leaves and checks permissions for the access type at the given
// privilege level. Hardware-managed A/D bits are modelled as always-set.
func Walk(read ReadMem, satp, va uint64, acc Access, priv int) (WalkResult, error) {
	var res WalkResult
	fault := func() (WalkResult, error) { return res, &PageFault{VA: va, Access: acc} }

	// SV39 requires va bits [63:39] to equal bit 38.
	if sx := int64(va<<25) >> 63; uint64(sx)>>39 != va>>39 {
		return fault()
	}
	root := isa.SatpPPN(satp) << 12
	vpn := [3]uint64{va >> 12 & 0x1FF, va >> 21 & 0x1FF, va >> 30 & 0x1FF}
	a := root
	for level := 2; level >= 0; level-- {
		pteAddr := a + vpn[level]*8
		res.PTEAddrs = append(res.PTEAddrs, pteAddr)
		pte := read(pteAddr)
		if pte&PteV == 0 || (pte&PteR == 0 && pte&PteW != 0) {
			return fault()
		}
		if pte&(PteR|PteX) == 0 {
			// pointer to next level
			a = pte >> 10 << 12
			continue
		}
		// leaf
		ppn := pte >> 10
		pageBits := uint(12 + 9*level)
		if level > 0 && ppn&(1<<(9*uint(level))-1) != 0 {
			return fault() // misaligned superpage
		}
		if !PermOK(uint8(pte), acc, priv) {
			return fault()
		}
		mask := uint64(1)<<pageBits - 1
		res.PA = ppn<<12&^mask | va&mask
		res.PageBits = pageBits
		res.Perms = uint8(pte & (PteR | PteW | PteX | PteU))
		res.Global = pte&PteG != 0
		return res, nil
	}
	return fault()
}

// PermOK reports whether a leaf PTE's R/W/X/U flags allow the access at the
// given privilege. Every holder of a cached translation asks it on every hit,
// as Walk does on the leaf, so a translation cached at one privilege is never
// honoured at another that the page table denies.
func PermOK(flags uint8, acc Access, priv int) bool {
	if priv == isa.PrivU && flags&PteU == 0 {
		return false
	}
	// S-mode access to U pages: allowed for data in this model (SUM assumed
	// set, as the mini-OS runs with user mappings visible), but never for
	// fetches, per the privileged spec.
	if priv == isa.PrivS && flags&PteU != 0 && acc == AccFetch {
		return false
	}
	switch acc {
	case AccFetch:
		return flags&PteX != 0
	case AccLoad:
		return flags&PteR != 0
	case AccStore:
		return flags&PteW != 0
	}
	return false
}
