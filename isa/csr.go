package isa

import "fmt"

// CSR addresses implemented by the model. The set covers what the XT-910
// evaluation needs: privilege plumbing (M/S modes, traps), SV39 translation
// (satp with its 16-bit ASID field, per §V-E), the vector configuration state
// (vl/vtype/vstart per the 0.7.1 draft), and the performance counters the
// paper's profiling tool exposes (§IX).
const (
	CSRFflags   uint16 = 0x001
	CSRFrm      uint16 = 0x002
	CSRFcsr     uint16 = 0x003
	CSRVstart   uint16 = 0x008
	CSRVl       uint16 = 0xC20
	CSRVtype    uint16 = 0xC21
	CSRVlenb    uint16 = 0xC22
	CSRCycle    uint16 = 0xC00
	CSRTime     uint16 = 0xC01
	CSRInstret  uint16 = 0xC02
	CSRSstatus  uint16 = 0x100
	CSRSie      uint16 = 0x104
	CSRStvec    uint16 = 0x105
	CSRSscratch uint16 = 0x140
	CSRSepc     uint16 = 0x141
	CSRScause   uint16 = 0x142
	CSRStval    uint16 = 0x143
	CSRSip      uint16 = 0x144
	CSRSatp     uint16 = 0x180
	CSRMstatus  uint16 = 0x300
	CSRMisa     uint16 = 0x301
	CSRMedeleg  uint16 = 0x302
	CSRMideleg  uint16 = 0x303
	CSRMie      uint16 = 0x304
	CSRMtvec    uint16 = 0x305
	CSRMscratch uint16 = 0x340
	CSRMepc     uint16 = 0x341
	CSRMcause   uint16 = 0x342
	CSRMtval    uint16 = 0x343
	CSRMip      uint16 = 0x344
	CSRMhartid  uint16 = 0xF14
	CSRMcycle   uint16 = 0xB00
	CSRMinstret uint16 = 0xB02

	// Hardware performance-monitor counters (§II "performance monitors").
	// The model maps them onto its pipeline statistics; see core.CSR.
	CSRMhpmcounter3  uint16 = 0xB03 // branches retired
	CSRMhpmcounter4  uint16 = 0xB04 // branch mispredictions
	CSRMhpmcounter5  uint16 = 0xB05 // L1D misses
	CSRMhpmcounter6  uint16 = 0xB06 // L1I misses
	CSRMhpmcounter7  uint16 = 0xB07 // loads retired
	CSRMhpmcounter8  uint16 = 0xB08 // stores retired
	CSRMhpmcounter9  uint16 = 0xB09 // store-to-load forwards
	CSRMhpmcounter10 uint16 = 0xB0A // pipeline flushes
	CSRMhpmcounter11 uint16 = 0xB0B // page-table walks
	CSRMhpmcounter12 uint16 = 0xB0C // vector instructions

	// XT-910 implementation-defined CSRs (modelled after T-Head's mxstatus
	// family): extension enable and hardware-prefetch control.
	CSRMxstatus uint16 = 0x7C0 // bit0: enable custom extensions
	CSRMhcr     uint16 = 0x7C1 // prefetch control: bit0 L1, bit1 L2, bit2 TLB, bit3 large distance
)

// WARL masks for the machine interrupt CSRs. The model implements the three
// machine interrupt sources (MSI/MTI/MEI) plus their S-mode shadows; every
// other bit is hard-wired to zero. mip's software-writable mask covers only
// the S-mode bits — MSIP/MTIP/MEIP are driven by the CLINT/PLIC and read
// through the hart's interrupt-source hook, never stored.
const (
	MieWritableMask     uint64 = 0xAAA // SSIP/MSIP, STIP/MTIP, SEIP/MEIP enables
	MipWritableMask     uint64 = 0x222 // SSIP/STIP/SEIP (machine bits are wired)
	MidelegWritableMask uint64 = 0x222 // only S-mode interrupts are delegable
)

// Machine interrupt causes (mcause values with bit 63 set on delivery) and
// their mip/mie bit positions.
const (
	IntMSoft  = 3  // machine software interrupt (IPI)
	IntMTimer = 7  // machine timer interrupt
	IntMExt   = 11 // machine external interrupt
)

// satp field helpers (SV39). The ASID field is 16 bits wide per §V-E.
const (
	SatpModeSV39 uint64 = 8
	SatpModeOff  uint64 = 0
)

// SatpMode extracts the translation mode from a satp value.
func SatpMode(satp uint64) uint64 { return satp >> 60 }

// SatpASID extracts the 16-bit ASID from a satp value.
func SatpASID(satp uint64) uint16 { return uint16(satp >> 44) }

// SatpPPN extracts the root page-table physical page number.
func SatpPPN(satp uint64) uint64 { return satp & ((1 << 44) - 1) }

// MakeSatp composes a satp value.
func MakeSatp(mode uint64, asid uint16, ppn uint64) uint64 {
	return mode<<60 | uint64(asid)<<44 | (ppn & ((1 << 44) - 1))
}

// Privilege levels.
const (
	PrivU = 0
	PrivS = 1
	PrivM = 3
)

// Trap causes (mcause/scause values).
const (
	ExcInstAddrMisaligned  = 0
	ExcInstAccessFault     = 1
	ExcIllegalInst         = 2
	ExcBreakpoint          = 3
	ExcLoadAddrMisaligned  = 4
	ExcLoadAccessFault     = 5
	ExcStoreAddrMisaligned = 6
	ExcStoreAccessFault    = 7
	ExcEcallU              = 8
	ExcEcallS              = 9
	ExcEcallM              = 11
	ExcInstPageFault       = 12
	ExcLoadPageFault       = 13
	ExcStorePageFault      = 15
)

// csrTable lists every CSR the model names, each once. A CSR's position here
// is its dense slot in a CSRFile (csrfile.go).
var csrTable = [...]struct {
	num  uint16
	name string
}{
	{CSRFflags, "fflags"}, {CSRFrm, "frm"}, {CSRFcsr, "fcsr"},
	{CSRVstart, "vstart"}, {CSRVl, "vl"}, {CSRVtype, "vtype"}, {CSRVlenb, "vlenb"},
	{CSRCycle, "cycle"}, {CSRTime, "time"}, {CSRInstret, "instret"},
	{CSRSstatus, "sstatus"}, {CSRSie, "sie"}, {CSRStvec, "stvec"},
	{CSRSscratch, "sscratch"}, {CSRSepc, "sepc"}, {CSRScause, "scause"},
	{CSRStval, "stval"}, {CSRSip, "sip"}, {CSRSatp, "satp"},
	{CSRMstatus, "mstatus"}, {CSRMisa, "misa"}, {CSRMedeleg, "medeleg"},
	{CSRMideleg, "mideleg"}, {CSRMie, "mie"}, {CSRMtvec, "mtvec"},
	{CSRMscratch, "mscratch"}, {CSRMepc, "mepc"}, {CSRMcause, "mcause"},
	{CSRMtval, "mtval"}, {CSRMip, "mip"}, {CSRMhartid, "mhartid"},
	{CSRMcycle, "mcycle"}, {CSRMinstret, "minstret"},
	{CSRMxstatus, "mxstatus"}, {CSRMhcr, "mhcr"},
	{CSRMhpmcounter3, "mhpmcounter3"}, {CSRMhpmcounter4, "mhpmcounter4"},
	{CSRMhpmcounter5, "mhpmcounter5"}, {CSRMhpmcounter6, "mhpmcounter6"},
	{CSRMhpmcounter7, "mhpmcounter7"}, {CSRMhpmcounter8, "mhpmcounter8"},
	{CSRMhpmcounter9, "mhpmcounter9"}, {CSRMhpmcounter10, "mhpmcounter10"},
	{CSRMhpmcounter11, "mhpmcounter11"}, {CSRMhpmcounter12, "mhpmcounter12"},
}

// csrSlot maps a 12-bit CSR address to its position in csrTable plus one;
// zero marks an address the model does not name.
var csrSlot [1 << 12]uint8

var csrByName = map[string]uint16{}

func init() {
	for i, e := range csrTable {
		if csrSlot[e.num] != 0 {
			panic("isa: csrTable lists " + e.name + " twice")
		}
		csrSlot[e.num] = uint8(i + 1)
		csrByName[e.name] = e.num
	}
}

// slotOf returns num's position in csrTable plus one, or zero.
func slotOf(num uint16) uint8 {
	if int(num) < len(csrSlot) {
		return csrSlot[num]
	}
	return 0
}

// CSRName returns the symbolic name of a CSR, or a hex spelling for unknown
// addresses.
func CSRName(num uint16) string {
	if s := slotOf(num); s != 0 {
		return csrTable[s-1].name
	}
	return fmt.Sprintf("0x%03x", num)
}

// ParseCSR resolves a CSR name to its address.
func ParseCSR(name string) (uint16, bool) {
	n, ok := csrByName[name]
	return n, ok
}
