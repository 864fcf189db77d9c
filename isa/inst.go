package isa

import "fmt"

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
	switch i.Op {
	case XSRB, XSRH, XSRW, XSRD,
		XMULA, XMULS, XMULAH, XMULSH, XMULAW, XMULSW,
		XMVEQZ, XMVNEZ,
		VMACCVV, VWMACCVV, VFMACCVV:
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

// vmSuffix renders the v0-mask operand of a masked vector instruction.
func (i Inst) vmSuffix() string {
	if i.Masked {
		return ", v0.t"
	}
	return ""
}

// String disassembles the instruction.
func (i Inst) String() string {
	op := i.Op
	switch op.Class() {
	case ClassBranch:
		return fmt.Sprintf("%s %s, %s, %d", op, i.Rs1, i.Rs2, i.Imm)
	case ClassJump:
		if op == JAL {
			return fmt.Sprintf("jal %s, %d", i.Rd, i.Imm)
		}
		return fmt.Sprintf("jalr %s, %d(%s)", i.Rd, i.Imm, i.Rs1)
	case ClassLoad:
		switch op {
		case XLRB, XLRH, XLRW, XLRD, XLURB, XLURH, XLURW:
			return fmt.Sprintf("%s %s, %s, %s, %d", op, i.Rd, i.Rs1, i.Rs2, i.Imm)
		}
		return fmt.Sprintf("%s %s, %d(%s)", op, i.Rd, i.Imm, i.Rs1)
	case ClassStore:
		switch op {
		case XSRB, XSRH, XSRW, XSRD:
			return fmt.Sprintf("%s %s, %s, %s, %d", op, i.Rd, i.Rs1, i.Rs2, i.Imm)
		}
		return fmt.Sprintf("%s %s, %d(%s)", op, i.Rs2, i.Imm, i.Rs1)
	case ClassCSR:
		if op == CSRRWI || op == CSRRSI || op == CSRRCI {
			return fmt.Sprintf("%s %s, %s, %d", op, i.Rd, CSRName(i.CSR), i.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %s", op, i.Rd, CSRName(i.CSR), i.Rs1)
	case ClassSys:
		if op == SFENCEVMA {
			return fmt.Sprintf("sfence.vma %s, %s", i.Rs1, i.Rs2)
		}
		return op.String()
	case ClassAMO:
		if op == LRW || op == LRD {
			return fmt.Sprintf("%s %s, (%s)", op, i.Rd, i.Rs1)
		}
		return fmt.Sprintf("%s %s, %s, (%s)", op, i.Rd, i.Rs2, i.Rs1)
	case ClassVSet:
		if op == VSETVLI {
			return fmt.Sprintf("vsetvli %s, %s, %s", i.Rd, i.Rs1, VType(i.Imm).String())
		}
		return fmt.Sprintf("vsetvl %s, %s, %s", i.Rd, i.Rs1, i.Rs2)
	case ClassVLoad:
		if op == VLSE || op == VLXEI {
			return fmt.Sprintf("%s %s, (%s), %s%s", op, i.Rd, i.Rs1, i.Rs2, i.vmSuffix())
		}
		return fmt.Sprintf("%s %s, (%s)%s", op, i.Rd, i.Rs1, i.vmSuffix())
	case ClassVStore:
		if op == VSSE || op == VSXEI {
			return fmt.Sprintf("%s %s, (%s), %s%s", op, i.Rs2, i.Rs1, i.Rs3, i.vmSuffix())
		}
		return fmt.Sprintf("%s %s, (%s)%s", op, i.Rs2, i.Rs1, i.vmSuffix())
	case ClassCacheOp:
		switch op {
		case XDCACHECVA, XDCACHEIVA, XTLBIASID, XTLBIVA:
			return fmt.Sprintf("%s %s", op, i.Rs1)
		}
		return op.String()
	case ClassVALU, ClassVFPU:
		// assembler operand order: vd, vs2, vs1/rs1/imm
		switch op {
		case VMVXS:
			return fmt.Sprintf("%s %s, %s", op, i.Rd, i.Rs2)
		case VMVSX, VMVVX, VMVVV:
			return fmt.Sprintf("%s %s, %s", op, i.Rd, i.Rs1)
		case VADDVI:
			return fmt.Sprintf("%s %s, %s, %d%s", op, i.Rd, i.Rs2, i.Imm, i.vmSuffix())
		}
		return fmt.Sprintf("%s %s, %s, %s%s", op, i.Rd, i.Rs2, i.Rs1, i.vmSuffix())
	}
	switch op {
	case LUI, AUIPC:
		return fmt.Sprintf("%s %s, %d", op, i.Rd, i.Imm>>12)
	case XADDSL:
		return fmt.Sprintf("addsl %s, %s, %s, %d", i.Rd, i.Rs1, i.Rs2, i.Imm)
	case XEXT, XEXTU:
		return fmt.Sprintf("%s %s, %s, %d, %d", op, i.Rd, i.Rs1, (i.Imm>>6)&63, i.Imm&63)
	case FMADDS, FMSUBS, FMADDD, FMSUBD:
		return fmt.Sprintf("%s %s, %s, %s, %s", op, i.Rd, i.Rs1, i.Rs2, i.Rs3)
	}
	if i.Rs2 == RegNone {
		if i.Rs1 == RegNone {
			return fmt.Sprintf("%s %s, %d", op, i.Rd, i.Imm)
		}
		switch op {
		case SLLI, SRLI, SRAI, SLLIW, SRLIW, SRAIW, XSRRI,
			ADDI, SLTI, SLTIU, XORI, ORI, ANDI, ADDIW:
			return fmt.Sprintf("%s %s, %s, %d", op, i.Rd, i.Rs1, i.Imm)
		}
		return fmt.Sprintf("%s %s, %s", op, i.Rd, i.Rs1)
	}
	return fmt.Sprintf("%s %s, %s, %s", op, i.Rd, i.Rs1, i.Rs2)
}
