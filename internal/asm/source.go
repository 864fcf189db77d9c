package asm

import (
	"strconv"

	"xt910/isa"
)

// AppendSource appends the assembly text of items to dst, a line each (data
// words four to a line) — the inverse of the text front end: Assemble of the
// result builds the image Builder builds from items. Registers are written by
// number unless the Item's Spell says otherwise.
func AppendSource(dst []byte, items []Item) []byte {
	for i := range items {
		dst = append(appendItem(dst, &items[i]), '\n')
	}
	return dst
}

const indent = "    "

func appendItem(dst []byte, it *Item) []byte {
	switch it.Kind {
	case KindLabel:
		return append(append(dst, it.Ref...), ':')
	case KindLi:
		dst = append(appendReg(append(dst, indent+"li "...), it.Inst.Rd, false), ", "...)
		return strconv.AppendInt(dst, it.Inst.Imm, 10)
	case KindLa:
		dst = append(appendReg(append(dst, indent+"la "...), it.Inst.Rd, false), ", "...)
		return append(dst, it.Ref...)
	case KindData:
		dir := ".dword "
		switch it.Size {
		case 1:
			dir = ".byte "
		case 2:
			dir = ".half "
		case 4:
			dir = ".word "
		}
		dst = append(dst, indent+dir...)
		if it.Ref != "" {
			return append(dst, it.Ref...)
		}
		for i, w := range it.Words {
			switch {
			case i > 0 && i%4 == 0: // four words to a line
				dst = append(dst, "\n"+indent+dir...)
			case i > 0:
				dst = append(dst, ", "...)
			}
			dst = strconv.AppendInt(dst, w, 10)
		}
		return dst
	case KindAlign:
		return strconv.AppendInt(append(dst, ".align "...), it.Inst.Imm, 10)
	case KindOrg:
		return strconv.AppendInt(append(dst, ".org "...), it.Inst.Imm, 10)
	case KindSpace:
		return strconv.AppendInt(append(dst, ".space "...), it.Inst.Imm, 10)
	}
	return appendInst(append(dst, indent...), it)
}

func appendReg(dst []byte, r isa.Reg, abi bool) []byte {
	var file byte
	switch {
	case abi || r == isa.RegNone:
		return append(dst, r.String()...)
	case r.IsX():
		file = 'x'
	case r.IsF():
		file = 'f'
	default:
		file = 'v'
	}
	return strconv.AppendInt(append(dst, file), int64(r.Index()), 10)
}

// appendInst writes a KindInst or KindBranch item in the operand order the
// text front end reads (isa.Inst.String is the disassembler's spelling of the
// same forms).
func appendInst(dst []byte, it *Item) []byte {
	in := &it.Inst
	op := in.Op
	reg := func(r isa.Reg) { dst = appendReg(dst, r, false) }
	rs1 := func() { dst = appendReg(dst, in.Rs1, it.Spell&SpellABIRs1 != 0) }
	rs2 := func() { dst = appendReg(dst, in.Rs2, it.Spell&SpellABIRs2 != 0) }
	sep := func() { dst = append(dst, ", "...) }
	num := func(v int64) { dst = strconv.AppendInt(dst, v, 10) }
	// imm writes the immediate operand: the deferred expression if there is one.
	imm := func() {
		if it.Ref != "" {
			dst = append(dst, it.Ref...)
		} else {
			num(in.Imm)
		}
	}
	mem := func(off bool) { // [off](rs1)
		if off {
			imm()
		}
		dst = append(dst, '(')
		rs1()
		dst = append(dst, ')')
	}
	masked := func() {
		if in.Masked {
			dst = append(dst, ", v0.t"...)
		}
	}
	pseudo := it.Spell&SpellPseudo != 0
	name := op.String()
	switch {
	case pseudo && op == isa.CSRRS:
		name = "csrr"
	case pseudo && op == isa.CSRRW:
		name = "csrw"
	case pseudo && op == isa.BEQ:
		name = "beqz"
	case pseudo && op == isa.BNE:
		name = "bnez"
	}
	dst = append(dst, name...)
	if op.Class() == isa.ClassSys && (op != isa.SFENCEVMA || in.Rs1 == isa.RegNone) {
		return dst
	}
	dst = append(dst, ' ')

	switch op.Class() {
	case isa.ClassBranch:
		rs1()
		sep()
		if !pseudo {
			rs2()
			sep()
		}
		imm()
	case isa.ClassJump:
		reg(in.Rd)
		sep()
		if op == isa.JAL {
			imm()
		} else {
			mem(true)
		}
	case isa.ClassLoad, isa.ClassStore:
		if in.Rs2 != isa.RegNone && in.Rd != isa.RegNone { // indexed custom forms
			reg(in.Rd)
			sep()
			rs1()
			sep()
			rs2()
			sep()
			imm()
			break
		}
		if op.Class() == isa.ClassLoad {
			reg(in.Rd)
		} else {
			rs2()
		}
		sep()
		mem(true)
	case isa.ClassCSR:
		csr := isa.CSRName(in.CSR)
		switch {
		case pseudo && op == isa.CSRRS:
			reg(in.Rd)
			sep()
			dst = append(dst, csr...)
		case pseudo && op == isa.CSRRW:
			dst = append(dst, csr...)
			sep()
			rs1()
		default:
			reg(in.Rd)
			sep()
			dst = append(dst, csr...)
			sep()
			if op == isa.CSRRWI || op == isa.CSRRSI || op == isa.CSRRCI {
				imm()
			} else {
				rs1()
			}
		}
	case isa.ClassSys: // sfence.vma
		rs1()
		sep()
		rs2()
	case isa.ClassAMO:
		reg(in.Rd)
		sep()
		if op != isa.LRW && op != isa.LRD {
			rs2()
			sep()
		}
		mem(false)
	case isa.ClassVSet:
		reg(in.Rd)
		sep()
		rs1()
		sep()
		if op == isa.VSETVL {
			rs2()
			break
		}
		vt := isa.VType(in.Imm)
		dst = append(dst, 'e')
		num(int64(vt.SEW()))
		dst = append(dst, ", m"...)
		num(int64(vt.LMUL()))
	case isa.ClassVLoad:
		reg(in.Rd)
		sep()
		mem(false)
		if op != isa.VLE {
			sep()
			rs2()
		}
		masked()
	case isa.ClassVStore:
		rs2()
		sep()
		mem(false)
		if op != isa.VSE {
			sep()
			reg(in.Rs3)
		}
		masked()
	case isa.ClassCacheOp:
		if in.Rs1 != isa.RegNone {
			rs1()
		} else {
			dst = dst[:len(dst)-1]
		}
	case isa.ClassVALU, isa.ClassVFPU:
		// operand order: vd, vs2, vs1/rs1/imm
		reg(in.Rd)
		sep()
		switch op {
		case isa.VMVXS:
			rs2()
			return dst
		case isa.VMVSX, isa.VMVVX, isa.VMVVV:
			rs1()
			return dst
		}
		rs2()
		sep()
		if op == isa.VADDVI {
			imm()
		} else {
			rs1()
		}
		masked()
	default: // ALU, Mul, Div, FPU: rd, then whichever of rs1, rs2, rs3, imm the op has
		reg(in.Rd)
		sep()
		switch op {
		case isa.LUI, isa.AUIPC:
			if it.Ref != "" {
				imm()
			} else {
				num(int64(uint32(in.Imm) >> 12))
			}
			return dst
		case isa.XEXT, isa.XEXTU:
			rs1()
			sep()
			num(in.Imm >> 6 & 63)
			sep()
			num(in.Imm & 63)
			return dst
		}
		rs1()
		if in.Rs2 != isa.RegNone {
			sep()
			rs2()
			if in.Rs3 != isa.RegNone {
				sep()
				reg(in.Rs3)
			}
		}
		if _, _, _, ok := isa.ImmRange(op); ok {
			sep()
			imm()
		}
	}
	return dst
}
