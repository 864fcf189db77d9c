package isa

// Priv is one hart's privileged state — its privilege level and its stored
// CSRs — with the rules of the RISC-V privileged spec that act on it, written
// once for the timing core and the golden model. Each holds one and keeps
// only what is its own: the CSRs it computes (clocks, counters, vl/vtype,
// mip's source bits) and the side effects of a write or a trap. A hart's
// privileged state is copied by assignment (sharing the CSRFile's map of
// CSRs isa does not name). The zero value is U-mode with no CSR written.
type Priv struct {
	Level int // PrivU, PrivS or PrivM
	csr   CSRFile
}

// mstatus fields the rules read and write.
const (
	mstatusSIE     = 1 << 1
	mstatusMIE     = 1 << 3
	mstatusSPIE    = 1 << 5
	mstatusMPIE    = 1 << 7
	mstatusSPP     = 1 << 8
	mstatusMPP     = 3 << 11
	mstatusFSDirty = 3<<13 | 1<<63 // FS (bits 14:13) = Dirty, plus SD
)

// Read returns num's stored value: fflags and frm read their fields of fcsr,
// any other CSR what was last stored to it (0 before the first write).
func (p *Priv) Read(num uint16) uint64 {
	switch num {
	case CSRFflags:
		return p.csr.Get(CSRFcsr) & 0x1F
	case CSRFrm:
		return p.csr.Get(CSRFcsr) >> 5 & 7
	}
	return p.csr.Get(num)
}

// Write stores v to num through its window. vl, vtype, vlenb, cycle and
// instret are read-only and ignore it. fflags and frm are fields of fcsr,
// and a write to any of the three dirties mstatus.FS. mie, mip and mideleg
// keep only their writable bits (MieWritableMask and its siblings). Any
// other CSR stores v as it is.
func (p *Priv) Write(num uint16, v uint64) {
	switch num {
	case CSRVl, CSRVtype, CSRVlenb, CSRCycle, CSRInstret: // read-only
	case CSRFflags:
		p.setFcsr(p.csr.Get(CSRFcsr)&^0x1F | v&0x1F)
	case CSRFrm:
		p.setFcsr(p.csr.Get(CSRFcsr)&^0xE0 | v&7<<5)
	case CSRFcsr:
		p.setFcsr(v & 0xFF)
	case CSRMie:
		p.csr.Set(num, v&MieWritableMask)
	case CSRMip:
		p.csr.Set(num, v&MipWritableMask)
	case CSRMideleg:
		p.csr.Set(num, v&MidelegWritableMask)
	default:
		p.csr.Set(num, v)
	}
}

func (p *Priv) setFcsr(v uint64) {
	p.csr.Set(CSRFcsr, v)
	p.DirtyFS()
}

// TakeFcsrWrite is CSRFile.TakeFcsrWrite on the hart's CSRs.
func (p *Priv) TakeFcsrWrite() bool { return p.csr.TakeFcsrWrite() }

// Dump returns a copy of every CSR stored so far (CSRFile.Dump).
func (p *Priv) Dump() map[uint16]uint64 { return p.csr.Dump() }

// Restore makes the stored CSRs exactly csrs, a Dump image; Level is kept.
func (p *Priv) Restore(csrs map[uint16]uint64) { p.csr.Restore(csrs) }

// CSRUpdate is what a Zicsr instruction op does to a CSR that read old, with
// source src (rs1's value, or the immediate of the I forms): it writes v,
// unless write is false — csrrs and csrrc, and their I forms, with a zero
// source do not write at all.
func CSRUpdate(op Op, old, src uint64) (v uint64, write bool) {
	switch op {
	case CSRRW, CSRRWI:
		return src, true
	case CSRRS, CSRRSI:
		return old | src, src != 0
	case CSRRC, CSRRCI:
		return old &^ src, src != 0
	}
	return 0, false
}

// AccrueFP records an executed floating-point instruction: its IEEE flags
// accrue into fcsr, and mstatus.FS becomes Dirty even when flags is 0.
func (p *Priv) AccrueFP(flags uint8) {
	p.csr.Or(CSRFcsr, uint64(flags))
	p.DirtyFS()
}

// DirtyFS marks the floating-point state Dirty, as a load into an f register
// does.
func (p *Priv) DirtyFS() { p.csr.Or(CSRMstatus, mstatusFSDirty) }

// EcallCause is the exception an ecall raises at the current level.
func (p *Priv) EcallCause() int {
	if p.Level == PrivM {
		return ExcEcallM
	}
	return ExcEcallU + p.Level
}

// Trap takes exception cause, raised by the instruction at pc with trap
// value tval, and returns the handler to resume at. Below M, a cause whose
// medeleg bit is set goes to S: sepc, scause and stval are written, SPIE ←
// SIE, SIE ← 0, SPP ← the old level, and the hart enters S at stvec's base.
// Any other goes to M alike, through mepc, mcause, mtval, MPIE ← MIE,
// MIE ← 0, MPP ← the old level and mtvec.
//
// ok is false when that base (the vector with its mode bits cleared) is 0:
// no handler is installed. The state is entered all the same, and the hart
// halts with exit code NoHandlerExit(cause), where a bare-metal harness
// would spin at address 0.
func (p *Priv) Trap(cause int, pc, tval uint64) (handler uint64, ok bool) {
	if p.Level == PrivM || p.csr.Get(CSRMedeleg)>>uint(cause)&1 == 0 {
		handler = p.enterM(uint64(cause), pc, tval)
		return handler, handler != 0
	}
	st := p.csr.Get(CSRMstatus)
	p.csr.Set(CSRSepc, pc)
	p.csr.Set(CSRScause, uint64(cause))
	p.csr.Set(CSRStval, tval)
	st = st&^(mstatusSIE|mstatusSPIE|mstatusSPP) | (st&mstatusSIE)<<4 | uint64(p.Level)<<8
	p.csr.Set(CSRMstatus, st)
	p.Level = PrivS
	handler = p.csr.Get(CSRStvec) &^ 3
	return handler, handler != 0
}

// NoHandlerExit is the exit code of a hart that took exception cause with no
// handler installed (Trap).
func NoHandlerExit(cause int) int { return -(16 + cause) }

// enterM writes the M-mode trap state for mcause value cause and returns
// mtvec's base.
func (p *Priv) enterM(cause, pc, tval uint64) uint64 {
	st := p.csr.Get(CSRMstatus)
	p.csr.Set(CSRMepc, pc)
	p.csr.Set(CSRMcause, cause)
	p.csr.Set(CSRMtval, tval)
	st = st&^(mstatusMIE|mstatusMPIE|mstatusMPP) | (st&mstatusMIE)<<4 | uint64(p.Level)<<11
	p.csr.Set(CSRMstatus, st)
	p.Level = PrivM
	return p.csr.Get(CSRMtvec) &^ 3
}

// Enabled is mie: the interrupts that may pend. Unlike Read it inlines, so a
// hart can skip its interrupt sources cheaply while it is 0.
func (p *Priv) Enabled() uint64 { return p.csr.Get(CSRMie) }

// Satp is the stored satp, which the MMU translates with. Like Enabled it
// inlines, so a fetch can read it cheaply.
func (p *Priv) Satp() uint64 { return p.csr.Get(CSRSatp) }

// Pending is the machine interrupts mip raises that mie enables.
func (p *Priv) Pending(mip uint64) uint64 { return mip & p.Enabled() }

// Deliverable reports whether a pending, enabled interrupt is taken now:
// below M always, in M only with mstatus.MIE set, and never while mtvec's
// base is 0 — without a handler an interrupt stays pending.
func (p *Priv) Deliverable() bool {
	if p.Level == PrivM && p.csr.Get(CSRMstatus)&mstatusMIE == 0 {
		return false
	}
	return p.csr.Get(CSRMtvec)&^3 != 0
}

// Interrupt takes the highest-priority interrupt in pend (Pending's bits,
// not 0; MEI > MSI > MTI) before the instruction at pc executes: mepc ← pc,
// mcause ← the cause with bit 63 set, mtval ← 0, MPIE ← MIE, MIE ← 0,
// MPP ← the old level, and the hart enters M. It returns the cause and
// mtvec's base, the handler.
func (p *Priv) Interrupt(pend, pc uint64) (cause, handler uint64) {
	switch {
	case pend&(1<<IntMExt) != 0:
		cause = IntMExt
	case pend&(1<<IntMSoft) != 0:
		cause = IntMSoft
	default:
		cause = IntMTimer
	}
	return cause, p.enterM(1<<63|cause, pc, 0)
}

// Mret returns from an M-mode handler: the hart enters the level in MPP,
// MIE ← MPIE, MPIE ← 1, MPP ← U. It returns mepc, where execution resumes.
func (p *Priv) Mret() uint64 {
	st := p.csr.Get(CSRMstatus)
	p.Level = int(st >> 11 & 3)
	p.csr.Set(CSRMstatus, st&^(mstatusMIE|mstatusMPP)|(st&mstatusMPIE)>>4|mstatusMPIE)
	return p.csr.Get(CSRMepc)
}

// Sret returns from an S-mode handler: the hart enters S if SPP is set and U
// otherwise, SIE ← SPIE, SPIE ← 1, SPP ← U. It returns sepc.
func (p *Priv) Sret() uint64 {
	st := p.csr.Get(CSRMstatus)
	p.Level = PrivU
	if st&mstatusSPP != 0 {
		p.Level = PrivS
	}
	p.csr.Set(CSRMstatus, st&^(mstatusSIE|mstatusSPP)|(st&mstatusSPIE)>>4|mstatusSPIE)
	return p.csr.Get(CSRSepc)
}

// Host-ABI call numbers, the RISC-V Linux numbers of the two calls the
// bare-metal host ABI serves.
const (
	SysExit  = 93
	SysWrite = 64
)

// HostCall serves an ecall under the bare-metal host ABI the benchmarks run
// on, given the call number a7 and the arguments a0–a2. SysExit halts the
// hart: exit is true and ret, a0, is its exit code. SysWrite appends the a2
// bytes at virtual address a1 to *out, up to the first one load cannot read,
// and ret, a2, is what a0 receives. ok is false for any other number: the
// ecall then raises EcallCause.
func HostCall(a7, a0, a1, a2 uint64, out *[]byte, load func(va uint64) (byte, bool)) (ret uint64, exit, ok bool) {
	switch a7 {
	case SysExit:
		return a0, true, true
	case SysWrite:
		for i := uint64(0); i < a2; i++ {
			b, ok := load(a1 + i)
			if !ok {
				break
			}
			*out = append(*out, b)
		}
		return a2, false, true
	}
	return 0, false, false
}
