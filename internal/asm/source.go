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

// appendInst writes a KindInst or KindBranch item: the operands are isa's to
// write (Inst.String is the disassembler's spelling of the same walk), the
// pseudo spellings drop the operand that is x0.
func appendInst(dst []byte, it *Item) []byte {
	op := it.Inst.Op
	name, skip := op.String(), isa.NoOperand
	if it.Spell&SpellPseudo != 0 {
		switch op {
		case isa.CSRRS:
			name, skip = "csrr", isa.Rs1X
		case isa.CSRRW:
			name, skip = "csrw", isa.RdX
		case isa.BEQ:
			name, skip = "beqz", isa.Rs2X
		case isa.BNE:
			name, skip = "bnez", isa.Rs2X
		}
	}
	return it.Inst.AppendOperands(append(dst, name...), (*itemSpelling)(it), skip)
}

// itemSpelling is the source printer's isa.Speller: registers by number unless
// the Item's Spell says otherwise, the Item's Ref in place of the immediate it
// stands for.
type itemSpelling Item

func (it *itemSpelling) AppendReg(dst []byte, r *isa.Reg) []byte {
	abi := r == &it.Inst.Rs1 && it.Spell&SpellABIRs1 != 0 || r == &it.Inst.Rs2 && it.Spell&SpellABIRs2 != 0
	return appendReg(dst, *r, abi)
}

func (it *itemSpelling) AppendImm(dst []byte, o isa.Operand, v int64) []byte {
	switch {
	case it.Ref != "":
		return append(dst, it.Ref...)
	case o == isa.ImmU:
		v &= 0xFFFFF // the unsigned spelling
	case o == isa.VTypeImm:
		dst = strconv.AppendInt(append(dst, 'e'), int64(isa.VType(v).SEW()), 10)
		return strconv.AppendInt(append(dst, ", m"...), int64(isa.VType(v).LMUL()), 10)
	}
	return strconv.AppendInt(dst, v, 10)
}
