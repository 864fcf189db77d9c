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

// Machine is one hart's architectural state.
type Machine struct {
	// X and F are the register files. A write from outside the package that
	// the lock-step checker must see goes through SetReg, which marks it for
	// TakeWrittenRegs.
	X   [32]uint64
	F   [32]uint64
	Vec *vector.Unit
	PC  uint64
	Mem *mem.Memory

	priv isa.Priv

	// written marks the X and F registers (bit r of isa.Reg r) written since
	// the last TakeWrittenRegs.
	written uint64

	Instret uint64

	resValid bool
	resAddr  uint64

	Halted   bool
	ExitCode int
	Output   []byte

	// Trace, when set, observes every retired instruction.
	Trace func(pc uint64, in isa.Inst)

	// OnStore, when set, observes every architectural memory write (scalar
	// stores, SC, AMOs and vector stores) with its PHYSICAL address, so the
	// co-simulation checker can track touched memory independently of which
	// virtual alias the program stored through.
	OnStore func(pa uint64, size int)

	// tab holds the soft TLB and the decode memo.
	tab *tables

	// code reads fetched words, holding the code page between fetches.
	code mem.Code

	// IntSource, when set, returns the externally-driven mip bits
	// (MSIP/MTIP/MEIP), checked before every instruction — the synchronous
	// model's equivalent of the core's per-retirement interrupt sample. mip
	// reads OR these bits in.
	IntSource func() uint64

	// OnInterrupt observes every taken machine interrupt with its cause
	// (co-simulation delivery checking).
	OnInterrupt func(cause uint64)

	// MMIO, when set, claims physical address ranges for devices (the
	// multi-hart cosimulator wires the emulator-side CLINT here so MSIP
	// IPIs work in the golden world too). Device accesses bypass memory,
	// the LR/SC reservation and OnStore, mirroring the pipeline's
	// uncached-device path.
	MMIO mem.Device
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
		Vec:  vector.NewUnit(),
		priv: isa.Priv{Level: isa.PrivM},
		tab:  tab,
	}
}

// Release hands the machine's soft TLB, decode memo and vector unit, zeroed,
// to the machines built after it (DESIGN.md "Session storage recycling"). The
// machine must not be used afterwards. Only the code that built a machine,
// and let nobody else see it, may call this.
func (m *Machine) Release() {
	*m.tab = tables{}
	freeTables.Put(m.tab)
	m.tab = nil
	m.Vec.Release()
	m.Vec = nil
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

// SetReg writes an architectural register by unified number (x0 stays 0)
// and marks it written.
func (m *Machine) SetReg(r isa.Reg, v uint64) {
	switch {
	case r.IsX():
		if r != isa.Zero {
			m.X[r.Index()] = v
			m.written |= 1 << r
		}
	case r.IsF():
		m.F[r.Index()] = v
		m.written |= 1 << r
	}
}

// TakeWrittenRegs returns the X and F registers written since its last call,
// bit r for isa.Reg r, and starts the next interval. The lock-step checker
// compares only these and what the core changed (core.ArchRegMismatchSince).
func (m *Machine) TakeWrittenRegs() uint64 {
	w := m.written
	m.written = 0
	return w
}

// Privilege returns the current privilege level.
func (m *Machine) Privilege() int { return m.priv.Level }

// SetPrivilege places the machine in the given privilege level.
func (m *Machine) SetPrivilege(p int) { m.priv.Level = p }

// CSR reads a CSR (modelled subset; unknown CSRs read as 0): the clocks, the
// vector configuration and mip's source bits are the machine's, the rest
// isa.Priv's.
func (m *Machine) CSR(num uint16) uint64 {
	switch num {
	case isa.CSRCycle, isa.CSRMcycle, isa.CSRTime, // no real clock: these read instret
		isa.CSRInstret, isa.CSRMinstret:
		return m.Instret
	case isa.CSRVl, isa.CSRVtype, isa.CSRVlenb:
		return m.Vec.CSR(num)
	case isa.CSRMip:
		v := m.priv.Read(num)
		if m.IntSource != nil {
			v |= m.IntSource()
		}
		return v
	}
	return m.priv.Read(num)
}

// TakeFcsrWrite reports whether fcsr was written since the last call
// (isa.CSRFile.TakeFcsrWrite).
func (m *Machine) TakeFcsrWrite() bool { return m.priv.TakeFcsrWrite() }

// SetCSR writes a CSR through isa.Priv's window; a satp write flushes the
// soft TLB.
func (m *Machine) SetCSR(num uint16, v uint64) {
	if num == isa.CSRSatp {
		m.flushTLB()
	}
	m.priv.Write(num, v)
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
	return m.priv.Level == isa.PrivM || isa.SatpMode(m.priv.Read(isa.CSRSatp)) != isa.SatpModeSV39
}

// translate resolves a virtual address or raises a page fault.
func (m *Machine) translate(va uint64, acc mmu.Access) (uint64, error) {
	if m.priv.Level == isa.PrivM {
		return va, nil // small enough to inline for this, the common case
	}
	return m.translateBelowM(va, acc)
}

// translateBelowM is translate below M-mode: bare satp, or the soft TLB and
// a walk.
func (m *Machine) translateBelowM(va uint64, acc mmu.Access) (uint64, error) {
	satp := m.priv.Read(isa.CSRSatp)
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
		if !mmu.PermOK(e.perms, acc, m.priv.Level) {
			return 0, pageFault(va, acc)
		}
		return e.base | va&(1<<e.bits-1), nil
	}
	res, err := mmu.Walk(func(pa uint64) uint64 { return m.Mem.Read(pa, 8) },
		satp, va, acc, m.priv.Level)
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
	// The reservation granule is tracked in PHYSICAL addresses, so a store
	// through a virtual alias of the reserved line kills it too.
	m.KillReservation(pa, size)
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
// the reserved mem.LineSize granule. The multi-hart cosimulator broadcasts
// every emulator's store here so a remote hart's write invalidates this hart's
// LR/SC reservation exactly as the coherence fabric does in the pipeline world.
func (m *Machine) KillReservation(pa uint64, size int) {
	if m.resValid && mem.WriteTouchesLine(pa, size, m.resAddr) {
		m.resValid = false
	}
}

// checkInterrupt takes the highest-priority deliverable interrupt before an
// instruction executes — the synchronous model's equivalent of the core's
// retirement-boundary sample — with mepc at the not-yet-executed instruction.
// It returns true when one was taken: the step is consumed without executing
// or counting an instruction. Step calls it only with an IntSource attached.
func (m *Machine) checkInterrupt() bool {
	pend := m.priv.Pending(m.IntSource())
	if pend == 0 || !m.priv.Deliverable() {
		return false
	}
	cause, handler := m.priv.Interrupt(pend, m.PC)
	m.PC = handler
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
		m.SetReg(in.Rd, m.Vec.VSet(in, m.Reg(in.Rs1), m.Reg(in.Rs2)))
	case kindVector:
		err = m.execVector(in)
	case kindCacheOp:
		if in.Op == isa.XTLBIASID || in.Op == isa.XTLBIVA {
			m.flushTLB()
		}
	default:
		err = &trapError{cause: isa.ExcIllegalInst, tval: 0}
	}
	// e.rd is the integer destination the fast kinds above write, and x0
	// (which nothing compares) for an instruction without one; the other
	// kinds mark through SetReg. A step that traps marks too, harmlessly.
	m.written |= 1 << (e.rd & 31)
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
	v, err := m.load(isa.MemAddr(in.Op, m.Reg(in.Rs1), m.Reg(in.Rs2), in.Imm), size)
	if err != nil {
		return err
	}
	m.SetReg(in.Rd, isa.ExtendLoad(in.Op, v, size))
	if in.Rd.IsF() {
		m.priv.DirtyFS()
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
	return m.store(isa.MemAddr(in.Op, m.Reg(in.Rs1), m.Reg(in.Rs2), in.Imm), in.Op.MemBytes(), data)
}

func (m *Machine) execFPU(in *isa.Inst) error {
	res, flags, ok := isa.EvalFPUFlags(in.Op, m.Reg(in.Rs1), m.Reg(in.Rs2), m.Reg(in.Rs3))
	if !ok {
		return &trapError{cause: isa.ExcIllegalInst, tval: 0}
	}
	m.SetReg(in.Rd, res)
	m.priv.AccrueFP(flags)
	return nil
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
		m.SetReg(in.Rd, isa.ExtendAMO(v, size))
	case isa.SCW, isa.SCD:
		if m.resValid && m.resAddr == pa {
			m.Mem.Write(pa, size, m.Reg(in.Rs2))
			if m.OnStore != nil {
				m.OnStore(pa, size)
			}
			m.SetReg(in.Rd, 0)
		} else {
			m.SetReg(in.Rd, 1)
		}
		m.resValid = false
	default:
		old := m.Mem.Read(pa, size)
		m.Mem.Write(pa, size, isa.EvalAMO(op, old, m.Reg(in.Rs2)))
		m.KillReservation(pa, size)
		if m.OnStore != nil {
			m.OnStore(pa, size)
		}
		m.SetReg(in.Rd, isa.ExtendAMO(old, size))
	}
	return nil
}

func (m *Machine) execCSR(in *isa.Inst) error {
	src := m.Reg(in.Rs1)
	if in.Op == isa.CSRRWI || in.Op == isa.CSRRSI || in.Op == isa.CSRRCI {
		src = uint64(in.Imm)
	}
	old := m.CSR(in.CSR)
	if v, ok := isa.CSRUpdate(in.Op, old, src); ok {
		m.SetCSR(in.CSR, v)
	}
	m.SetReg(in.Rd, old)
	return nil
}

func (m *Machine) execSys(in *isa.Inst, nextPC *uint64) error {
	switch in.Op {
	case isa.ECALL:
		a0, exit, ok := isa.HostCall(m.X[17], m.X[10], m.X[11], m.X[12], &m.Output,
			func(va uint64) (byte, bool) {
				pa, err := m.translate(va, mmu.AccLoad)
				if err != nil {
					return 0, false
				}
				return m.Mem.LoadByte(pa), true
			})
		switch {
		case exit:
			m.Halted, m.ExitCode = true, int(int64(a0))
		case ok:
			m.SetReg(isa.A0, a0)
		default:
			return &trapError{cause: m.priv.EcallCause()}
		}
		return nil
	case isa.EBREAK:
		return &trapError{cause: isa.ExcBreakpoint, tval: m.PC}
	case isa.MRET:
		*nextPC = m.priv.Mret()
		return nil
	case isa.SRET:
		*nextPC = m.priv.Sret()
		return nil
	case isa.SFENCEVMA:
		m.flushTLB()
		return nil
	case isa.FENCE, isa.FENCEI, isa.WFI:
		return nil
	}
	return &trapError{cause: isa.ExcIllegalInst}
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
		m.SetReg(in.Rd, xres)
	}
	return nil
}

// enterTrap takes an exception (isa.Priv.Trap), halting when no handler is
// installed.
func (m *Machine) enterTrap(t *trapError) {
	handler, ok := m.priv.Trap(t.cause, m.PC, t.tval)
	m.PC = handler
	if !ok {
		m.Halted, m.ExitCode = true, isa.NoHandlerExit(t.cause)
	}
}
