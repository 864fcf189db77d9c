package emu

import "xt910/isa"

// ArchState is a point-in-time copy of one hart's architectural state: the
// scalar register files, PC, privilege, retired-instruction count, LR/SC
// reservation and the vector unit, its registers held as raw register-file
// bytes so they round-trip without knowing VL/SEW. It is what a checkpoint
// records of the golden model besides its CSR file and memory.
type ArchState struct {
	PC      uint64
	X       [32]uint64
	F       [32]uint64
	Priv    int
	Instret uint64

	ResValid bool
	ResAddr  uint64

	// V holds one byte slice per vector register (nil without a vector unit).
	V     [][]byte
	VL    uint64
	VType uint64
}

// Snapshot captures the current architectural state, CSRs aside.
func (m *Machine) Snapshot() ArchState {
	s := ArchState{
		PC:       m.PC,
		X:        m.X,
		F:        m.F,
		Priv:     m.priv.Level,
		Instret:  m.Instret,
		ResValid: m.resValid,
		ResAddr:  m.resAddr,
	}
	if m.Vec != nil {
		s.VL = m.Vec.VL
		s.VType = uint64(m.Vec.VType)
		s.V = make([][]byte, 32)
		for r := 0; r < 32; r++ {
			s.V[r] = append([]byte(nil), m.Vec.File.Bytes(r)...)
		}
	}
	return s
}

// DumpCSRs returns a copy of every CSR value the machine has materialized —
// the raw control-register file. Paired with RestoreCSRs it round-trips CSR
// state exactly (no WARL re-masking), which is what a checkpoint needs: every
// CSR the machine would keep behaving on.
func (m *Machine) DumpCSRs() map[uint16]uint64 {
	return m.priv.Dump()
}

// RestoreCSRs replaces the machine's raw CSR file with the given values
// (as produced by DumpCSRs) and invalidates the translation cache, since
// satp/privilege-dependent state may have changed.
func (m *Machine) RestoreCSRs(csrs map[uint16]uint64) {
	m.priv.Restore(csrs)
	m.flushTLB()
}

// RestoreArch loads the scalar architectural state from a snapshot: PC,
// register files, privilege, instret, the reservation and — when the snapshot
// carries vector state and the machine has a vector unit — the vector file,
// vl and vtype. Every X and F register counts as written. CSRs are NOT
// restored here (a Snapshot records none); use RestoreCSRs with a DumpCSRs
// image for those.
func (m *Machine) RestoreArch(s ArchState) {
	m.PC = s.PC
	m.X = s.X
	m.F = s.F
	m.written = ^uint64(0)
	m.priv.Level = s.Priv
	m.Instret = s.Instret
	m.resValid, m.resAddr = s.ResValid, s.ResAddr
	if m.Vec != nil && s.V != nil {
		m.Vec.VL = s.VL
		m.Vec.VType = isa.VType(s.VType)
		for r := 0; r < 32 && r < len(s.V); r++ {
			b := m.Vec.File.Bytes(r)
			for i := range b {
				b[i] = 0
			}
			copy(b, s.V[r])
		}
	}
	m.flushTLB()
}
