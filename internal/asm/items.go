package asm

import "xt910/isa"

// Item constructors for the front ends that write programs in code — the fuzz
// generator and the compiler — one per operand shape: registers as isa.Reg,
// targets and addresses as label names. Source registers are spelled by
// number; a caller that wants an ABI name sets the Item's Spell.

// Label defines name at the current address.
func Label(name string) Item { return Item{Kind: KindLabel, Ref: name} }

// Align pads to a multiple of 2^pow bytes.
func Align(pow int64) Item {
	it := Item{Kind: KindAlign}
	it.Inst.Imm = pow
	return it
}

// Li loads the constant v into rd; La loads the address of target.
func Li(rd isa.Reg, v int64) Item {
	it := Item{Kind: KindLi}
	it.Inst.Rd, it.Inst.Imm = rd, v
	return it
}

func La(rd isa.Reg, target string) Item {
	it := Item{Kind: KindLa, Ref: target}
	it.Inst.Rd = rd
	return it
}

// Data is a run of size-byte words.
func Data(size uint8, words []int64) Item { return Item{Kind: KindData, Size: size, Words: words} }

// Sys is an instruction without operands (ecall, fence, mret, ...).
func Sys(op isa.Op) Item { return Item{Inst: isa.NewInst(op)} }

// Inst is op with whichever of rd, rs1, rs2 it has (isa.RegNone for the
// rest) and its immediate.
func Inst(op isa.Op, rd, rs1, rs2 isa.Reg, imm int64) Item {
	it := Item{Inst: isa.NewInst(op)}
	it.Inst.Rd, it.Inst.Rs1, it.Inst.Rs2, it.Inst.Imm = rd, rs1, rs2, imm
	return it
}

// RRR is "op rd, rs1, rs2"; RRI is "op rd, rs1, imm".
func RRR(op isa.Op, rd, rs1, rs2 isa.Reg) Item { return Inst(op, rd, rs1, rs2, 0) }

func RRI(op isa.Op, rd, rs1 isa.Reg, imm int64) Item {
	return Inst(op, rd, rs1, isa.RegNone, imm)
}

// Load is "op rd, off(base)"; Store is "op data, off(base)".
func Load(op isa.Op, rd isa.Reg, off int, base isa.Reg) Item {
	return Inst(op, rd, base, isa.RegNone, int64(off))
}

func Store(op isa.Op, data isa.Reg, off int, base isa.Reg) Item {
	return Inst(op, isa.RegNone, base, data, int64(off))
}

// AMO is "op rd, data, (base)"; lr has no data operand (isa.RegNone).
func AMO(op isa.Op, rd, data, base isa.Reg) Item { return Inst(op, rd, base, data, 0) }

// Branch is "op rs1, rs2, target".
func Branch(op isa.Op, rs1, rs2 isa.Reg, target string) Item {
	it := Inst(op, isa.RegNone, rs1, rs2, 0)
	it.Kind, it.Ref = KindBranch, target
	return it
}

// Bz is "beqz rs, target" (or bnez).
func Bz(op isa.Op, rs isa.Reg, target string) Item {
	it := Branch(op, rs, isa.Zero, target)
	it.Spell |= SpellPseudo
	return it
}

// CSR is "op rd, csr, rs1"; CSRI takes a 5-bit immediate instead.
func CSR(op isa.Op, rd isa.Reg, num uint16, rs1 isa.Reg) Item {
	it := Inst(op, rd, rs1, isa.RegNone, 0)
	it.Inst.CSR = num
	return it
}

func CSRI(op isa.Op, rd isa.Reg, num uint16, imm int64) Item {
	it := Inst(op, rd, isa.RegNone, isa.RegNone, imm)
	it.Inst.CSR = num
	return it
}

func CSRR(rd isa.Reg, num uint16) Item {
	it := CSR(isa.CSRRS, rd, num, isa.Zero)
	it.Spell |= SpellPseudo
	return it
}

func CSRW(num uint16, rs isa.Reg) Item {
	it := CSR(isa.CSRRW, isa.Zero, num, rs)
	it.Spell |= SpellPseudo
	return it
}

// FP is "op rd, rs1, rs2, rs3" over FP (and, for rd or rs1, integer)
// registers, with the absent trailing operands isa.RegNone.
func FP(op isa.Op, rd, rs1, rs2, rs3 isa.Reg) Item {
	it := Inst(op, rd, rs1, rs2, 0)
	it.Inst.Rs3 = rs3
	return it
}

// Vec is a vector instruction in the text's operand order "op vd, vs2, vs1";
// VLoad is "op vd, (base)[, rs2]" and VStore "op vs, (base)[, rs3]".
func Vec(op isa.Op, vd, vs2, vs1 isa.Reg, masked bool) Item {
	it := Inst(op, vd, vs1, vs2, 0)
	it.Inst.Masked = masked
	return it
}

func VLoad(op isa.Op, vd, base, rs2 isa.Reg) Item { return Inst(op, vd, base, rs2, 0) }

func VStore(op isa.Op, vs, base, rs3 isa.Reg, masked bool) Item {
	it := Inst(op, isa.RegNone, base, vs, 0)
	it.Inst.Rs3, it.Inst.Masked = rs3, masked
	return it
}
