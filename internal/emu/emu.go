// Package emu is the architectural (functional) emulator of the XT-910 ISA:
// the golden model. It executes programs instruction-by-instruction with full
// RV64GCV + custom-extension semantics, M/S/U privilege, SV39 translation and
// traps, but no timing. The pipeline model is continuously cross-checked
// against it (co-simulation property tests), and it doubles as the
// "instruction accurate simulator" of the paper's CDS toolchain (§IX).
package emu

import (
	"fmt"

	"xt910/internal/mem"
	"xt910/internal/mmu"
	"xt910/internal/recycle"
	"xt910/internal/vector"
	"xt910/isa"
)

// EcallMode selects how ecall is handled.
type EcallMode int

const (
	// EcallHost services the minimal host ABI (exit/write) directly, the way
	// the benchmarks run bare-metal. Unknown syscalls fall through to a trap.
	EcallHost EcallMode = iota
	// EcallTrap always raises the architectural environment-call exception.
	EcallTrap
)

// Host syscall numbers (RISC-V Linux ABI subset).
const (
	SysExit  = 93
	SysWrite = 64
)

// Machine is one hart's architectural state.
type Machine struct {
	X   [32]uint64
	F   [32]uint64
	Vec *vector.Unit
	PC  uint64
	Mem *mem.Memory

	Priv int

	csr isa.CSRFile

	Instret uint64

	resValid bool
	resAddr  uint64

	Halted   bool
	ExitCode int
	Output   []byte

	Ecall EcallMode

	// Trace, when set, observes every retired instruction.
	Trace func(pc uint64, in isa.Inst)

	// OnStore, when set, observes every architectural memory write (scalar
	// stores, SC, AMOs and vector stores) with its PHYSICAL address, so the
	// co-simulation checker can track touched memory independently of which
	// virtual alias the program stored through.
	OnStore func(pa uint64, size int)

	// OnCacheOp observes custom cache/TLB maintenance ops (the SoC model
	// hooks this; standalone emulation treats them as no-ops).
	OnCacheOp func(op isa.Op, operand uint64)

	// tab holds the soft TLB and the decode memo.
	tab *tables

	// code is the physical page fetchPage last read a word from, based at
	// codeBase and taken from codeMem at its generation codeGen; nil before
	// the first. fetch reads it directly while translation is off.
	code     *[mem.PageSize]byte
	codeBase uint64
	codeMem  *mem.Memory
	codeGen  uint64

	// BreakOnEbreak stops execution at ebreak instead of trapping.
	BreakOnEbreak bool

	// CycleModel, when set, derives the value the cycle/time/mcycle CSRs read
	// from the retired-instruction count — a coarse timing model for the
	// functional machine (e.g. instret/IPC from a prior pipeline run). Nil
	// keeps the historical behaviour of reporting Instret.
	CycleModel func(instret uint64) uint64

	// IntSource, when set, returns the externally-driven mip bits
	// (MSIP/MTIP/MEIP), checked before every instruction — the synchronous
	// model's equivalent of the core's per-retirement interrupt sample. mip
	// reads OR these bits in, mirroring core.CSR.
	IntSource func() uint64

	// OnInterrupt observes every taken machine interrupt with its cause
	// (co-simulation delivery checking).
	OnInterrupt func(cause uint64)

	// MMIO, when set, claims physical address ranges for devices (the
	// multi-hart cosimulator wires the emulator-side CLINT here so MSIP
	// IPIs work in the golden world too). Device accesses bypass memory,
	// the LR/SC reservation and OnStore, mirroring the pipeline's
	// uncached-device path.
	MMIO MMIODevice
}

// MMIODevice is a memory-mapped device window (structurally identical to the
// core package's interface; redeclared here because core imports emu).
type MMIODevice interface {
	Covers(pa uint64) bool
	Read(pa uint64, size int) uint64
	Write(pa uint64, size int, v uint64)
}

// stlbEntry is one soft-TLB slot: the translation of one 4 KB virtual page
// for one access class. The table is direct-mapped, so a slot is a hint that
// a later walk may replace at any time.
type stlbEntry struct {
	key   uint64 // va>>12<<2 | access class
	base  uint64 // pa of page start
	bits  uint8
	perms uint8 // the leaf PTE's R/W/X/U bits, re-checked on every hit
	valid bool
}

// stlbSize gives each of the three access classes 32 pages.
const stlbSize = 128

// tables are a machine's two host-side caches, neither architectural state:
// the soft TLB (translate; invalidated on satp writes and sfence) and the
// decode memo (Fetch). They live outside the Machine so that a released
// machine can hand them on (Release): a fuzz seed should not pay to allocate
// them.
type tables struct {
	stlb [stlbSize]stlbEntry
	memo [memoSize]memoEntry
}

// freeTables recycles tables between machines; every one on it is all zero,
// as a new one is.
var freeTables recycle.Objects[tables]

// New creates a machine starting in M-mode at pc 0.
func New(m *mem.Memory) *Machine {
	tab := freeTables.Get()
	if tab == nil {
		tab = new(tables)
	}
	return &Machine{
		Mem:  m,
		Vec:  vector.NewUnit(vector.DefaultVLEN),
		Priv: isa.PrivM,
		tab:  tab,
	}
}

// Release hands the machine's soft TLB and decode memo, zeroed, to the
// machines built after it (DESIGN.md "Session storage recycling"). The
// machine must not be used afterwards. Only the code that built a machine,
// and let nobody else see it, may call this.
func (m *Machine) Release() {
	*m.tab = tables{}
	freeTables.Put(m.tab)
	m.tab = nil
}

// Reg reads an architectural register by unified number.
func (m *Machine) Reg(r isa.Reg) uint64 {
	switch {
	case r.IsX():
		return m.X[r.Index()]
	case r.IsF():
		return m.F[r.Index()]
	}
	return 0
}

func (m *Machine) setReg(r isa.Reg, v uint64) {
	switch {
	case r.IsX():
		if r != isa.Zero {
			m.X[r.Index()] = v
		}
	case r.IsF():
		m.F[r.Index()] = v
	}
}

// Cycles is the functional machine's notion of elapsed cycles: CycleModel
// applied to the retired-instruction count, or Instret itself (an IPC-1
// machine) when no model is installed.
func (m *Machine) Cycles() uint64 {
	if m.CycleModel != nil {
		return m.CycleModel(m.Instret)
	}
	return m.Instret
}

// CSR reads a CSR (modelled subset; unknown CSRs read as 0).
func (m *Machine) CSR(num uint16) uint64 {
	switch num {
	case isa.CSRCycle, isa.CSRMcycle, isa.CSRTime:
		return m.Cycles() // the functional model has no real cycles
	case isa.CSRInstret, isa.CSRMinstret:
		return m.Instret
	case isa.CSRVl:
		return m.Vec.VL
	case isa.CSRVtype:
		return uint64(m.Vec.VType)
	case isa.CSRVlenb:
		return uint64(m.Vec.File.VLENBits / 8)
	case isa.CSRFflags:
		return m.csr.Get(isa.CSRFcsr) & 0x1F
	case isa.CSRFrm:
		return m.csr.Get(isa.CSRFcsr) >> 5 & 7
	case isa.CSRMip:
		v := m.csr.Get(num)
		if m.IntSource != nil {
			v |= m.IntSource()
		}
		return v
	}
	return m.csr.Get(num)
}

// SetCSR writes a CSR, applying side effects (satp flushes the soft TLB;
// the fflags/frm windows alias into fcsr, which is the canonical storage).
func (m *Machine) SetCSR(num uint16, v uint64) {
	switch num {
	case isa.CSRSatp:
		m.flushTLB()
	case isa.CSRVl, isa.CSRVtype, isa.CSRVlenb, isa.CSRCycle, isa.CSRInstret:
		return // read-only
	case isa.CSRFflags:
		m.csr.Set(isa.CSRFcsr, m.csr.Get(isa.CSRFcsr)&^uint64(0x1F)|v&0x1F)
		m.csr.Or(isa.CSRMstatus, isa.MstatusFSDirty)
		return
	case isa.CSRFrm:
		m.csr.Set(isa.CSRFcsr, m.csr.Get(isa.CSRFcsr)&^uint64(0xE0)|v&7<<5)
		m.csr.Or(isa.CSRMstatus, isa.MstatusFSDirty)
		return
	case isa.CSRFcsr:
		m.csr.Set(isa.CSRFcsr, v&0xFF)
		m.csr.Or(isa.CSRMstatus, isa.MstatusFSDirty)
		return
	// Interrupt CSR WARL windows: unimplemented bits are wired to zero, and
	// mip's machine-level bits are device-driven (IntSource), never stored.
	// The same masks live in core.SetCSR — csr_window_test pins the parity.
	case isa.CSRMie:
		m.csr.Set(num, v&isa.MieWritableMask)
		return
	case isa.CSRMip:
		m.csr.Set(num, v&isa.MipWritableMask)
		return
	case isa.CSRMideleg:
		m.csr.Set(num, v&isa.MidelegWritableMask)
		return
	}
	m.csr.Set(num, v)
}

// accrueFFlags ORs newly raised IEEE exception flags into fcsr and marks the
// floating-point context dirty in mstatus. Called for every executed FP
// instruction even when flags is 0: any FP-unit execution leaves FS=Dirty.
func (m *Machine) accrueFFlags(flags uint8) {
	m.csr.Or(isa.CSRFcsr, uint64(flags))
	m.csr.Or(isa.CSRMstatus, isa.MstatusFSDirty)
}

// trapError carries an architectural exception through the execute switch.
type trapError struct {
	cause int
	tval  uint64
}

func (t *trapError) Error() string {
	return fmt.Sprintf("trap cause=%d tval=%#x", t.cause, t.tval)
}

// untranslated reports whether virtual addresses are physical as they stand:
// in M-mode, or under a bare satp.
func (m *Machine) untranslated() bool {
	return m.Priv == isa.PrivM || isa.SatpMode(m.csr.Get(isa.CSRSatp)) != isa.SatpModeSV39
}

// translate resolves a virtual address or raises a page fault.
func (m *Machine) translate(va uint64, acc mmu.Access) (uint64, error) {
	if m.Priv == isa.PrivM {
		return va, nil // small enough to inline for this, the common case
	}
	return m.translateBelowM(va, acc)
}

// translateBelowM is translate below M-mode: bare satp, or the soft TLB and
// a walk.
func (m *Machine) translateBelowM(va uint64, acc mmu.Access) (uint64, error) {
	satp := m.csr.Get(isa.CSRSatp)
	if isa.SatpMode(satp) != isa.SatpModeSV39 {
		return va, nil
	}
	vpn := va >> 12
	key := vpn<<2 | uint64(acc) // tag soft-TLB entries by page and access class
	// fold the high page bits in: a page and its far alias share low ones
	e := &m.tab.stlb[(vpn^vpn>>16)<<2&(stlbSize-1)|uint64(acc)]
	if e.valid && e.key == key {
		// The entry was filled at the privilege of that moment; like the
		// pipeline's TLBs, a hit answers for the current one.
		if !mmu.PermOK(e.perms, acc, m.Priv) {
			return 0, pageFault(va, acc)
		}
		return e.base | va&(1<<e.bits-1), nil
	}
	res, err := mmu.Walk(func(pa uint64) uint64 { return m.Mem.Read(pa, 8) },
		satp, va, acc, m.Priv)
	if err != nil {
		return 0, pageFault(va, acc) // Walk fails in no other way
	}
	mask := uint64(1)<<res.PageBits - 1
	*e = stlbEntry{key: key, base: res.PA &^ mask, bits: uint8(res.PageBits), perms: res.Perms, valid: true}
	return res.PA, nil
}

// pageFault is the trap a failed translation of va raises.
func pageFault(va uint64, acc mmu.Access) *trapError {
	return &trapError{cause: (&mmu.PageFault{VA: va, Access: acc}).Cause(), tval: va}
}

// flushTLB drops every soft-TLB entry.
func (m *Machine) flushTLB() { m.tab.stlb = [stlbSize]stlbEntry{} }

func (m *Machine) load(va uint64, size int) (uint64, error) {
	pa, err := m.translate(va, mmu.AccLoad)
	if err != nil {
		return 0, err
	}
	if m.MMIO != nil && m.MMIO.Covers(pa) {
		return m.MMIO.Read(pa, size), nil
	}
	return m.Mem.Read(pa, size), nil
}

func (m *Machine) store(va uint64, size int, v uint64) error {
	pa, err := m.translate(va, mmu.AccStore)
	if err != nil {
		return err
	}
	if m.MMIO != nil && m.MMIO.Covers(pa) {
		m.MMIO.Write(pa, size, v)
		return nil
	}
	m.Mem.Write(pa, size, v)
	// Any store that touches the reserved line invalidates an LR/SC
	// reservation (64-byte granule, mirroring the pipeline's cache line).
	// The granule is tracked in PHYSICAL addresses, like the core's, so a
	// store through a virtual alias of the reserved line kills it too.
	if m.resValid && pa>>6 == m.resAddr>>6 {
		m.resValid = false
	}
	if m.OnStore != nil {
		m.OnStore(pa, size)
	}
	return nil
}

// Reservation exposes the LR/SC reservation state for co-simulation.
func (m *Machine) Reservation() (valid bool, addr uint64) {
	return m.resValid, m.resAddr
}

// KillReservation drops the reservation when a write to [pa, pa+size) touches
// the reserved 64-byte granule. The multi-hart cosimulator broadcasts every
// emulator's store here so a remote hart's write invalidates this hart's LR/SC
// reservation exactly as the coherence fabric does in the pipeline world.
func (m *Machine) KillReservation(pa uint64, size int) {
	if m.resValid && pa>>6 == m.resAddr>>6 {
		m.resValid = false
	}
}

// checkInterrupt takes the highest-priority enabled machine interrupt
// (MEI > MSI > MTI) before an instruction executes, mirroring the core's
// retirement-boundary sample: mcause gets bit 63, mepc points at the
// not-yet-executed instruction, and the MIE/MPIE/MPP dance matches
// core.takeInterrupt bit for bit. It returns true when a trap was taken —
// the step is consumed without executing or counting an instruction. Step
// calls it only with an IntSource attached.
func (m *Machine) checkInterrupt() bool {
	pend := m.IntSource() & m.csr.Get(isa.CSRMie)
	if pend == 0 {
		return false
	}
	// M-mode interrupts fire when running below M, or in M with MIE set.
	if m.Priv == isa.PrivM && m.csr.Get(isa.CSRMstatus)&mstatusMIE == 0 {
		return false
	}
	var cause uint64
	switch {
	case pend&(1<<isa.IntMExt) != 0:
		cause = isa.IntMExt
	case pend&(1<<isa.IntMSoft) != 0:
		cause = isa.IntMSoft
	default:
		cause = isa.IntMTimer
	}
	target := m.csr.Get(isa.CSRMtvec) &^ 3
	if target == 0 {
		return false // no handler installed: leave it pending, like the core
	}
	m.csr.Set(isa.CSRMepc, m.PC)
	m.csr.Set(isa.CSRMcause, 1<<63|cause)
	m.csr.Set(isa.CSRMtval, 0)
	st := m.csr.Get(isa.CSRMstatus)
	st = st&^mstatusMPIE | (st&mstatusMIE)<<4&mstatusMPIE
	st &^= mstatusMIE
	st = st&^mstatusMPP | uint64(m.Priv)<<11
	m.csr.Set(isa.CSRMstatus, st)
	m.Priv = isa.PrivM
	m.PC = target
	if m.OnInterrupt != nil {
		m.OnInterrupt(cause)
	}
	return true
}

// Step executes one instruction. It returns an error only for simulator-level
// failures; architectural exceptions are handled via the trap machinery.
func (m *Machine) Step() error {
	if m.Halted {
		return nil
	}
	if m.IntSource != nil && m.checkInterrupt() {
		return nil
	}
	pc := m.PC
	e, err := m.fetch(pc)
	if err != nil {
		m.enterTrap(err.(*trapError))
		return nil
	}
	in := &e.inst
	if m.Trace != nil {
		m.Trace(pc, *in)
	}
	next := pc + uint64(in.Size)
	// The integer kinds write x0 like any register and zero it again after.
	switch e.kind {
	case kindALU:
		m.X[e.rd&31], _ = isa.EvalIntALU(in.Op, m.X[e.rs1&31], m.X[e.rs2&31], pc, in.Imm, in.Size)
		m.X[0] = 0
	case kindBranch:
		if isa.EvalBranch(in.Op, m.X[e.rs1&31], m.X[e.rs2&31]) {
			next = pc + uint64(in.Imm)
		}
	case kindJAL:
		m.X[e.rd&31], m.X[0] = next, 0
		next = pc + uint64(in.Imm)
	case kindJALR:
		target := (m.X[e.rs1&31] + uint64(in.Imm)) &^ 1
		m.X[e.rd&31], m.X[0] = next, 0
		next = target
	case kindLoad:
		var v uint64
		if v, err = m.load(m.X[e.rs1&31]+uint64(in.Imm), int(e.size)); err == nil {
			m.X[e.rd&31], m.X[0] = uint64(int64(v<<e.ext)>>e.ext), 0
		}
	case kindStore:
		err = m.store(m.X[e.rs1&31]+uint64(in.Imm), int(e.size), m.X[e.rs2&31])
	case kindALU3:
		m.X[e.rd&31], _ = isa.EvalIntALU3(in.Op, m.X[e.rs1&31], m.X[e.rs2&31], m.X[e.rd&31])
		m.X[0] = 0
	case kindLoadAny:
		err = m.execLoad(in)
	case kindStoreAny:
		err = m.execStore(in)
	case kindFPU:
		err = m.execFPU(in)
	case kindAMO:
		err = m.execAMO(in)
	case kindCSR:
		err = m.execCSR(in)
	case kindSys:
		err = m.execSys(in, &next)
	case kindVSet:
		m.execVSet(in)
	case kindVector:
		err = m.execVector(in)
	case kindCacheOp:
		m.execCacheOp(in)
	default:
		err = &trapError{cause: isa.ExcIllegalInst, tval: 0}
	}
	if err != nil {
		if te, ok := err.(*trapError); ok {
			// A trapping instruction does not retire: instret must not
			// count it (the OoO core flushes it without committing).
			m.enterTrap(te)
			return nil
		}
		return err
	}
	m.PC = next
	m.Instret++
	return nil
}

// Run executes until halt or the instruction budget is exhausted.
func (m *Machine) Run(maxInsts uint64) error {
	for i := uint64(0); i < maxInsts && !m.Halted; i++ {
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// execLoad executes a load Step has no integer kind for: an FP destination
// or an indexed address.
func (m *Machine) execLoad(in *isa.Inst) error {
	size := in.Op.MemBytes()
	v, err := m.load(m.memAddr(in), size)
	if err != nil {
		return err
	}
	m.setReg(in.Rd, loadExtend(in.Op, v, size))
	if in.Rd.IsF() {
		m.csr.Or(isa.CSRMstatus, isa.MstatusFSDirty)
	}
	return nil
}

// execStore executes a store Step has no integer kind for: FP data or an
// indexed address.
func (m *Machine) execStore(in *isa.Inst) error {
	data := m.Reg(in.Rs2)
	switch in.Op {
	case isa.XSRB, isa.XSRH, isa.XSRW, isa.XSRD:
		data = m.Reg(in.Rd) // custom stores carry data in rd
	}
	return m.store(m.memAddr(in), in.Op.MemBytes(), data)
}

func (m *Machine) execFPU(in *isa.Inst) error {
	res, flags, ok := isa.EvalFPUFlags(in.Op, m.Reg(in.Rs1), m.Reg(in.Rs2), m.Reg(in.Rs3))
	if !ok {
		return &trapError{cause: isa.ExcIllegalInst, tval: 0}
	}
	m.setReg(in.Rd, res)
	m.accrueFFlags(flags)
	return nil
}

func (m *Machine) execVSet(in *isa.Inst) {
	requested := m.Reg(in.Rs1)
	var vt isa.VType
	if in.Op == isa.VSETVLI {
		vt = isa.VType(in.Imm)
	} else {
		vt = isa.VType(m.Reg(in.Rs2))
	}
	if in.Rs1 == isa.Zero && in.Rd != isa.Zero {
		// rs1=x0: request VLMAX
		requested = ^uint64(0)
	}
	m.setReg(in.Rd, m.Vec.SetVL(requested, vt))
}

func (m *Machine) execCacheOp(in *isa.Inst) {
	operand := m.Reg(in.Rs1)
	if m.OnCacheOp != nil {
		m.OnCacheOp(in.Op, operand)
	}
	if in.Op == isa.XTLBIASID || in.Op == isa.XTLBIVA {
		m.flushTLB()
	}
}

// memAddr computes the effective address of any scalar memory op, including
// the custom indexed forms (§VIII-A).
func (m *Machine) memAddr(in *isa.Inst) uint64 {
	switch in.Op {
	case isa.XLRB, isa.XLRH, isa.XLRW, isa.XLRD,
		isa.XSRB, isa.XSRH, isa.XSRW, isa.XSRD:
		return m.Reg(in.Rs1) + m.Reg(in.Rs2)<<uint(in.Imm&3)
	case isa.XLURB, isa.XLURH, isa.XLURW:
		return m.Reg(in.Rs1) + uint64(uint32(m.Reg(in.Rs2)))<<uint(in.Imm&3)
	}
	return m.Reg(in.Rs1) + uint64(in.Imm)
}

func loadExtend(op isa.Op, v uint64, size int) uint64 {
	if op == isa.FLW {
		return isa.BoxF32(uint32(v))
	}
	if op == isa.FLD {
		return v
	}
	if op.LoadUnsigned() {
		return v
	}
	sh := uint(64 - 8*size)
	return uint64(int64(v<<sh) >> sh)
}

func (m *Machine) execAMO(in *isa.Inst) error {
	op := in.Op
	size := op.MemBytes()
	addr := m.Reg(in.Rs1)
	// Every AMO-class op — LR included — translates once with store-class
	// permission, so a read-only page raises a store page fault up front,
	// exactly as the pipeline does (it checks writability at retire so SC
	// can never fault after a successful LR). The reservation is kept as a
	// physical address: two virtual aliases of one line share one granule.
	pa, err := m.translate(addr, mmu.AccStore)
	if err != nil {
		if te, ok := err.(*trapError); ok {
			te.cause = isa.ExcStorePageFault
		}
		return err
	}
	switch op {
	case isa.LRW, isa.LRD:
		v := m.Mem.Read(pa, size)
		m.resValid, m.resAddr = true, pa
		m.setReg(in.Rd, loadExtendSized(v, size))
	case isa.SCW, isa.SCD:
		if m.resValid && m.resAddr == pa {
			m.Mem.Write(pa, size, m.Reg(in.Rs2))
			if m.OnStore != nil {
				m.OnStore(pa, size)
			}
			m.setReg(in.Rd, 0)
		} else {
			m.setReg(in.Rd, 1)
		}
		m.resValid = false
	default:
		old := m.Mem.Read(pa, size)
		m.Mem.Write(pa, size, isa.EvalAMO(op, old, m.Reg(in.Rs2)))
		if m.resValid && pa>>6 == m.resAddr>>6 {
			m.resValid = false
		}
		if m.OnStore != nil {
			m.OnStore(pa, size)
		}
		m.setReg(in.Rd, loadExtendSized(old, size))
	}
	return nil
}

func loadExtendSized(v uint64, size int) uint64 {
	if size == 4 {
		return uint64(int64(int32(uint32(v))))
	}
	return v
}

func (m *Machine) execCSR(in *isa.Inst) error {
	var src uint64
	useImm := in.Op == isa.CSRRWI || in.Op == isa.CSRRSI || in.Op == isa.CSRRCI
	if useImm {
		src = uint64(in.Imm)
	} else {
		src = m.Reg(in.Rs1)
	}
	old := m.CSR(in.CSR)
	switch in.Op {
	case isa.CSRRW, isa.CSRRWI:
		m.SetCSR(in.CSR, src)
	case isa.CSRRS, isa.CSRRSI:
		if src != 0 {
			m.SetCSR(in.CSR, old|src)
		}
	case isa.CSRRC, isa.CSRRCI:
		if src != 0 {
			m.SetCSR(in.CSR, old&^src)
		}
	}
	m.setReg(in.Rd, old)
	return nil
}

// mstatus bit positions used by the trap machinery.
const (
	mstatusSIE  = 1 << 1
	mstatusMIE  = 1 << 3
	mstatusSPIE = 1 << 5
	mstatusMPIE = 1 << 7
	mstatusSPP  = 1 << 8
	mstatusMPP  = 3 << 11
)

func (m *Machine) execSys(in *isa.Inst, nextPC *uint64) error {
	switch in.Op {
	case isa.ECALL:
		if m.Ecall == EcallHost && m.handleHostEcall() {
			return nil
		}
		cause := isa.ExcEcallU + m.Priv
		if m.Priv == isa.PrivM {
			cause = isa.ExcEcallM
		}
		return &trapError{cause: cause}
	case isa.EBREAK:
		if m.BreakOnEbreak {
			m.Halted = true
			return nil
		}
		return &trapError{cause: isa.ExcBreakpoint, tval: m.PC}
	case isa.MRET:
		st := m.csr.Get(isa.CSRMstatus)
		m.Priv = int(st >> 11 & 3)
		// MIE ← MPIE, MPIE ← 1, MPP ← U
		st = st&^mstatusMIE | (st&mstatusMPIE)>>4&mstatusMIE
		st |= mstatusMPIE
		st &^= mstatusMPP
		m.csr.Set(isa.CSRMstatus, st)
		*nextPC = m.csr.Get(isa.CSRMepc)
		return nil
	case isa.SRET:
		st := m.csr.Get(isa.CSRMstatus)
		if st&mstatusSPP != 0 {
			m.Priv = isa.PrivS
		} else {
			m.Priv = isa.PrivU
		}
		st = st&^mstatusSIE | (st&mstatusSPIE)>>4&mstatusSIE
		st |= mstatusSPIE
		st &^= mstatusSPP
		m.csr.Set(isa.CSRMstatus, st)
		*nextPC = m.csr.Get(isa.CSRSepc)
		return nil
	case isa.SFENCEVMA:
		m.flushTLB()
		return nil
	case isa.FENCE, isa.FENCEI, isa.WFI:
		return nil
	}
	return &trapError{cause: isa.ExcIllegalInst}
}

// handleHostEcall services the bare-metal host ABI; returns false when the
// syscall number is unknown (which then traps architecturally).
func (m *Machine) handleHostEcall() bool {
	switch m.X[17] { // a7
	case SysExit:
		m.Halted = true
		m.ExitCode = int(int64(m.X[10]))
		return true
	case SysWrite:
		addr, n := m.X[11], m.X[12]
		for i := uint64(0); i < n; i++ {
			pa, err := m.translate(addr+i, mmu.AccLoad)
			if err != nil {
				break
			}
			m.Output = append(m.Output, m.Mem.LoadByte(pa))
		}
		m.X[10] = n
		return true
	}
	return false
}

func (m *Machine) execVector(in *isa.Inst) error {
	scalar := m.Reg(in.Rs1)
	vin := *in
	switch in.Op {
	case isa.VLSE:
		vin.Imm = int64(m.Reg(in.Rs2))
	case isa.VSSE:
		vin.Imm = int64(m.Reg(in.Rs3))
	}
	var memErr error
	ld := func(addr uint64, size int) uint64 {
		v, err := m.load(addr, size)
		if err != nil && memErr == nil {
			memErr = err
		}
		return v
	}
	st := func(addr uint64, size int, v uint64) {
		if err := m.store(addr, size, v); err != nil && memErr == nil {
			memErr = err
		}
	}
	xres, hasX, err := m.Vec.Exec(vin, scalar, ld, st)
	if err != nil {
		return &trapError{cause: isa.ExcIllegalInst}
	}
	if memErr != nil {
		return memErr
	}
	if hasX {
		m.setReg(in.Rd, xres)
	}
	return nil
}

// enterTrap implements the M/S trap entry flow with medeleg-based delegation.
func (m *Machine) enterTrap(t *trapError) {
	deleg := m.csr.Get(isa.CSRMedeleg)
	toS := m.Priv != isa.PrivM && deleg>>uint(t.cause)&1 == 1
	st := m.csr.Get(isa.CSRMstatus)
	if toS {
		m.csr.Set(isa.CSRSepc, m.PC)
		m.csr.Set(isa.CSRScause, uint64(t.cause))
		m.csr.Set(isa.CSRStval, t.tval)
		// SPIE ← SIE, SIE ← 0, SPP ← prior priv
		st = st&^mstatusSPIE | (st&mstatusSIE)<<4&mstatusSPIE
		st &^= mstatusSIE
		if m.Priv == isa.PrivS {
			st |= mstatusSPP
		} else {
			st &^= mstatusSPP
		}
		m.csr.Set(isa.CSRMstatus, st)
		m.Priv = isa.PrivS
		m.PC = m.csr.Get(isa.CSRStvec) &^ 3
		if m.csr.Get(isa.CSRStvec) == 0 {
			// Same no-handler convention as the mtvec==0 path below, so a
			// delegated fault halts instead of spinning at VA 0.
			m.Halted = true
			m.ExitCode = -(16 + t.cause)
		}
		return
	}
	m.csr.Set(isa.CSRMepc, m.PC)
	m.csr.Set(isa.CSRMcause, uint64(t.cause))
	m.csr.Set(isa.CSRMtval, t.tval)
	st = st&^mstatusMPIE | (st&mstatusMIE)<<4&mstatusMPIE
	st &^= mstatusMIE
	st = st&^mstatusMPP | uint64(m.Priv)<<11
	m.csr.Set(isa.CSRMstatus, st)
	m.Priv = isa.PrivM
	m.PC = m.csr.Get(isa.CSRMtvec) &^ 3
	if m.csr.Get(isa.CSRMtvec) == 0 {
		// No trap handler installed: a real bare-metal harness would spin;
		// halt with a distinctive code so tests notice immediately.
		m.Halted = true
		m.ExitCode = -(16 + t.cause)
	}
}
