package emu

import (
	"fmt"
	"slices"

	"xt910/isa"
)

// ArchState is a point-in-time copy of one hart's architectural state: the
// scalar register files, PC, privilege, retired-instruction count, LR/SC
// reservation and a chosen set of CSRs. It is the unit of comparison for the
// co-simulation checker and for debugging dumps; vector state is held as raw
// register-file bytes so it can be diffed without knowing VL/SEW.
type ArchState struct {
	PC      uint64
	X       [32]uint64
	F       [32]uint64
	Priv    int
	Instret uint64

	ResValid bool
	ResAddr  uint64

	// CSR holds the values of exactly the CSRs requested from Snapshot.
	CSR map[uint16]uint64

	// V holds one byte slice per vector register (nil without a vector unit).
	V     [][]byte
	VL    uint64
	VType uint64
}

// Snapshot captures the current architectural state. The csrs list selects
// which control registers are recorded (counters like cycle/instret can be
// included or excluded as the caller's comparison policy requires).
func (m *Machine) Snapshot(csrs ...uint16) ArchState {
	s := ArchState{
		PC:       m.PC,
		X:        m.X,
		F:        m.F,
		Priv:     m.priv.Level,
		Instret:  m.Instret,
		ResValid: m.resValid,
		ResAddr:  m.resAddr,
	}
	if len(csrs) > 0 {
		s.CSR = make(map[uint16]uint64, len(csrs))
		for _, n := range csrs {
			s.CSR[n] = m.CSR(n)
		}
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
// the raw control-register file, unfiltered by any comparison policy. Paired
// with RestoreCSRs it round-trips CSR state exactly (no WARL re-masking),
// which is what a checkpoint needs: Snapshot records only the CSRs a checker
// compares, DumpCSRs records everything the machine would keep behaving on.
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
// vl and vtype. CSRs are NOT restored here (a Snapshot records only the
// compared subset); use RestoreCSRs with a DumpCSRs image for those.
func (m *Machine) RestoreArch(s ArchState) {
	m.PC = s.PC
	m.X = s.X
	m.F = s.F
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

// Diff returns one human-readable line per field where the two states differ;
// an empty slice means the states are architecturally identical. CSRs are
// compared over the union of the two snapshots' recorded sets and listed in
// ascending CSR number.
func (a ArchState) Diff(b ArchState) []string {
	var out []string
	if a.PC != b.PC {
		out = append(out, fmt.Sprintf("pc: %#x != %#x", a.PC, b.PC))
	}
	if a.Priv != b.Priv {
		out = append(out, fmt.Sprintf("priv: %d != %d", a.Priv, b.Priv))
	}
	if a.Instret != b.Instret {
		out = append(out, fmt.Sprintf("instret: %d != %d", a.Instret, b.Instret))
	}
	for i := 0; i < 32; i++ {
		if a.X[i] != b.X[i] {
			out = append(out, fmt.Sprintf("%s: %#x != %#x", isa.X(i), a.X[i], b.X[i]))
		}
	}
	for i := 0; i < 32; i++ {
		if a.F[i] != b.F[i] {
			out = append(out, fmt.Sprintf("%s: %#x != %#x", isa.F(i), a.F[i], b.F[i]))
		}
	}
	if a.ResValid != b.ResValid || (a.ResValid && a.ResAddr != b.ResAddr) {
		out = append(out, fmt.Sprintf("reservation: valid=%v addr=%#x != valid=%v addr=%#x",
			a.ResValid, a.ResAddr, b.ResValid, b.ResAddr))
	}
	var csrs []uint16
	for _, m := range []map[uint16]uint64{a.CSR, b.CSR} {
		for n := range m {
			if a.CSR[n] != b.CSR[n] && !slices.Contains(csrs, n) {
				csrs = append(csrs, n)
			}
		}
	}
	slices.Sort(csrs) // in CSR-number order, not the maps' walk order
	for _, n := range csrs {
		out = append(out, fmt.Sprintf("csr %s: %#x != %#x", isa.CSRName(n), a.CSR[n], b.CSR[n]))
	}
	if a.VL != b.VL {
		out = append(out, fmt.Sprintf("vl: %d != %d", a.VL, b.VL))
	}
	if a.VType != b.VType {
		out = append(out, fmt.Sprintf("vtype: %#x != %#x", a.VType, b.VType))
	}
	for r := 0; r < len(a.V) && r < len(b.V); r++ {
		for i := 0; i < len(a.V[r]) && i < len(b.V[r]); i++ {
			if a.V[r][i] != b.V[r][i] {
				out = append(out, fmt.Sprintf("%s byte %d: %02x != %02x", isa.V(r), i, a.V[r][i], b.V[r][i]))
				break
			}
		}
	}
	return out
}
