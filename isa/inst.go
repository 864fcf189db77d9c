package isa

import "strconv"

// Inst is a decoded instruction. It is the common currency between the
// assembler, the functional emulator, and the pipeline model.
//
// Operand conventions:
//   - Rd is the destination (or store-data source for stores, matching the
//     XT-910 custom store forms; standard stores keep data in Rs2).
//   - Imm holds the sign-extended immediate. For indexed custom memory ops and
//     addsl it holds the 2-bit shift amount; for ext/extu it packs msb<<6|lsb.
//   - CSR holds the CSR address for Zicsr operations.
type Inst struct {
	Op   Op
	Rd   Reg
	Rs1  Reg
	Rs2  Reg
	Rs3  Reg
	Imm  int64
	CSR  uint16
	Size uint8 // encoded size in bytes: 2 (RVC) or 4
	// Masked marks a vector operation predicated on v0 (vm=0 in the
	// encoding): elements whose mask bit is clear are left undisturbed.
	Masked bool
}

// NewInst returns an instruction with unused register fields set to RegNone
// and Size defaulted to 4.
func NewInst(op Op) Inst {
	return Inst{Op: op, Rd: RegNone, Rs1: RegNone, Rs2: RegNone, Rs3: RegNone, Size: 4}
}

// Sources returns the architectural source registers the instruction reads,
// in a fixed-size array plus a count (to avoid allocation on the hot path).
func (i *Inst) Sources() (regs [3]Reg, n int) {
	// x0 is kept: consumers resolve operands positionally (operand k of a
	// non-commutative op must stay at index k), and the rename stage maps
	// x0 to the permanently-zero physical register, so including it costs
	// nothing. Dropping it shifted later sources down a slot and made e.g.
	// `sra rd, x0, rs2` read the shift amount as the value being shifted.
	cand := [4]Reg{i.Rs1, i.Rs2, i.Rs3, RegNone}
	// Stores carry their data in Rs2 (standard) or Rd (custom indexed form);
	// MACs and conditional moves read their destination.
	if f := i.Op.format(); f != nil && f.readsRd {
		cand[3] = i.Rd
	}
	for _, r := range cand {
		if r != RegNone {
			regs[n] = r
			n++
		}
	}
	return regs, n
}

// WritesReg reports whether the instruction produces a register result.
func (i *Inst) WritesReg() bool {
	if i.Rd == RegNone {
		return false
	}
	switch i.Op.Class() {
	case ClassStore, ClassBranch, ClassSys, ClassCacheOp, ClassVStore:
		return false
	}
	if i.Rd == Zero && i.Rd.IsX() {
		return false
	}
	return true
}

// abiNames is the disassembler's spelling: registers by ABI name, immediates
// in decimal, vtype as the CSR prints it.
type abiNames struct{}

func (abiNames) AppendReg(dst []byte, r *Reg) []byte { return append(dst, r.String()...) }

func (abiNames) AppendImm(dst []byte, o Operand, v int64) []byte {
	if o == VTypeImm {
		return append(dst, VType(v).String()...)
	}
	return strconv.AppendInt(dst, v, 10)
}

// String disassembles the instruction.
func (i Inst) String() string {
	return string(i.AppendOperands(append(make([]byte, 0, 32), i.Op.String()...), abiNames{}, NoOperand))
}
