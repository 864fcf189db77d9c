package isa

import "strconv"

// Operand is one operand of an instruction format. The set is closed, and an
// operand knows four things: where its bits go in the word (place), how to
// read them back (extract), how it is written in assembly (AppendOperands),
// and — in internal/asm, by a switch over these same constants — how it is
// parsed. A format in op.go is a list of these and nothing else.
type Operand uint8

const (
	NoOperand Operand = iota

	// Registers, named for the Inst field and the register file; the five
	// bits sit in the slot of the same name unless the comment says otherwise.
	RdX
	RdF
	RdV
	Rs1X
	Rs1F
	Rs1V
	Rs2X
	Rs2F
	Rs2V
	Rs3F    // bits [31:27]
	Rs1Opt  // an x register the source may leave out: absent encodes x0
	Rs2Opt  // likewise; a format's optional operands are written all or none
	VData   // Rs2 in the rd slot: the data vector of a vector store
	VStride // Rs3 in the rs2 slot: a strided store's stride register
	VIndex  // Rs3 in the rs2 slot: an indexed store's index vector
	Base    // Rs1, written "(rs1)"
	MemI    // Rs1 and an I-type offset, written "off(rs1)"
	MemS    // Rs1 and an S-type offset, written "off(rs1)"

	// Immediates, in Inst.Imm.
	ImmI
	ImmB
	ImmU // written as its upper 20 bits
	ImmJ
	Shamt6
	Shamt5
	Uimm5    // in the rs1 slot (csrr*i)
	Simm5    // in the rs1 slot (.vi)
	Shift2   // bits [26:25]
	MsbLsb   // msb<<6|lsb in the imm12 field, written "msb, lsb"
	VTypeImm // bits [30:20], written "e32, m2"

	CSRNum   // Inst.CSR, written by name where it has one
	VM       // Inst.Masked, vm bit 25 clear; written as a trailing "v0.t"
	VMemMask // Inst.Masked, bit 25 set: the vector memory ops' polarity

	numOperands
)

// The Inst register fields.
const (
	fRd = 1 + iota
	fRs1
	fRs2
	fRs3
)

// operands holds what the kinds differ in only by number: the register part
// (Inst field, file, bit position) and the bounds of the immediate part
// (align 0: none).
var operands = [numOperands]struct {
	field, shift  uint8
	file          Reg
	lo, hi, align int64
}{
	RdX: {field: fRd, shift: 7}, RdF: {field: fRd, shift: 7, file: RegF0}, RdV: {field: fRd, shift: 7, file: RegV0},
	Rs1X: {field: fRs1, shift: 15}, Rs1F: {field: fRs1, shift: 15, file: RegF0}, Rs1V: {field: fRs1, shift: 15, file: RegV0},
	Rs2X: {field: fRs2, shift: 20}, Rs2F: {field: fRs2, shift: 20, file: RegF0}, Rs2V: {field: fRs2, shift: 20, file: RegV0},
	Rs3F:   {field: fRs3, shift: 27, file: RegF0},
	Rs1Opt: {field: fRs1, shift: 15}, Rs2Opt: {field: fRs2, shift: 20},
	VData:   {field: fRs2, shift: 7, file: RegV0},
	VStride: {field: fRs3, shift: 20}, VIndex: {field: fRs3, shift: 20, file: RegV0},
	Base: {field: fRs1, shift: 15},
	MemI: {field: fRs1, shift: 15, lo: -1 << 11, hi: 1<<11 - 1, align: 1},
	MemS: {field: fRs1, shift: 15, lo: -1 << 11, hi: 1<<11 - 1, align: 1},

	ImmI:   {lo: -1 << 11, hi: 1<<11 - 1, align: 1},
	ImmB:   {lo: -1 << 12, hi: 1<<12 - 2, align: 2},
	ImmU:   {lo: -1 << 31, hi: 1<<32 - 1<<12, align: 1 << 12}, // the 20-bit field may be written signed or unsigned
	ImmJ:   {lo: -1 << 20, hi: 1<<20 - 2, align: 2},
	Shamt6: {hi: 63, align: 1}, Shamt5: {hi: 31, align: 1},
	Uimm5: {hi: 31, align: 1}, Simm5: {lo: -16, hi: 15, align: 1},
	Shift2: {hi: 3, align: 1}, MsbLsb: {hi: 0xFFF, align: 1}, VTypeImm: {hi: 0x7FF, align: 1},
}

// Reg returns the Inst field a register operand names (the base register of
// a memory operand included), nil for an operand that is not a register.
func (o Operand) Reg(in *Inst) *Reg {
	switch operands[o].field {
	case fRd:
		return &in.Rd
	case fRs1:
		return &in.Rs1
	case fRs2:
		return &in.Rs2
	case fRs3:
		return &in.Rs3
	}
	return nil
}

// place returns o's share of in's encoding: an absent register is x0, an
// immediate is truncated to its field.
func (o Operand) place(in *Inst) uint32 {
	var w uint32
	if r := o.Reg(in); r != nil && *r != RegNone {
		w = uint32(*r) & 31 << operands[o].shift
	}
	imm := uint32(in.Imm)
	switch o {
	case ImmI, MemI, MsbLsb:
		w |= imm << 20
	case MemS:
		w |= imm&0x1F<<7 | imm>>5<<25
	case ImmB:
		w |= imm>>11&1<<7 | imm>>1&0xF<<8 | imm>>5&0x3F<<25 | imm>>12<<31
	case ImmU:
		w |= imm &^ 0xFFF
	case ImmJ:
		w |= imm>>12&0xFF<<12 | imm>>11&1<<20 | imm>>1&0x3FF<<21 | imm>>20<<31
	case Shamt6:
		w |= imm & 0x3F << 20
	case Shamt5:
		w |= imm & 0x1F << 20
	case Uimm5, Simm5:
		w |= imm & 0x1F << 15
	case Shift2:
		w |= imm & 3 << 25
	case VTypeImm:
		w |= imm & 0x7FF << 20
	case CSRNum:
		w |= uint32(in.CSR) << 20
	case VM:
		if !in.Masked {
			w = 1 << 25
		}
	case VMemMask:
		if in.Masked {
			w = 1 << 25
		}
	}
	return w
}

// extract reads o's bits of raw into in.
func (o Operand) extract(raw uint32, in *Inst) {
	if r := o.Reg(in); r != nil {
		*r = operands[o].file + Reg(raw>>operands[o].shift&31)
	}
	switch o {
	case ImmI, MemI:
		in.Imm = int64(int32(raw)) >> 20
	case MemS:
		in.Imm = signExtend(bf(raw, 31, 25)<<5|bf(raw, 11, 7), 12)
	case ImmB:
		in.Imm = signExtend(bf(raw, 31, 31)<<12|bf(raw, 7, 7)<<11|bf(raw, 30, 25)<<5|bf(raw, 11, 8)<<1, 13)
	case ImmU:
		in.Imm = int64(int32(raw &^ 0xFFF))
	case ImmJ:
		in.Imm = signExtend(bf(raw, 31, 31)<<20|bf(raw, 19, 12)<<12|bf(raw, 20, 20)<<11|bf(raw, 30, 21)<<1, 21)
	case Shamt6:
		in.Imm = int64(raw >> 20 & 0x3F)
	case Shamt5:
		in.Imm = int64(raw >> 20 & 0x1F)
	case Uimm5:
		in.Imm = int64(raw >> 15 & 0x1F)
	case Simm5:
		in.Imm = signExtend(bf(raw, 19, 15), 5)
	case Shift2:
		in.Imm = int64(raw >> 25 & 3)
	case MsbLsb:
		in.Imm = int64(raw >> 20)
	case VTypeImm:
		in.Imm = int64(raw >> 20 & 0x7FF)
	case CSRNum:
		in.CSR = uint16(raw >> 20)
	case VM:
		in.Masked = raw>>25&1 == 0
	case VMemMask:
		in.Masked = raw>>25&1 == 1
	}
}

// A Speller writes the two parts of an operand that its format does not fix:
// how a register is named and how an immediate value is shown. The
// disassembler (Inst.String) uses ABI names and decimal; the assembler's
// source printer numbers the registers and puts a label expression where the
// value is not yet known.
type Speller interface {
	// AppendReg writes the register *r, one of the Inst's own fields.
	AppendReg(dst []byte, r *Reg) []byte
	// AppendImm writes v, the value operand o shows: Imm itself, Imm>>12
	// for ImmU.
	AppendImm(dst []byte, o Operand, v int64) []byte
}

// illegalOperands is how an op without a format is written: the disassembler
// has always shown a word it cannot decode as "illegal <none>, 0".
var illegalOperands = []Operand{RdX, ImmI}

// AppendOperands appends in's operands as the source writes them — a space,
// then the operands ", "-separated — leaving out skip and what the
// instruction does not have: an optional register that is absent, the mask of
// an unmasked operation.
func (in *Inst) AppendOperands(dst []byte, sp Speller, skip Operand) []byte {
	opds := illegalOperands
	if f := in.Op.format(); f != nil {
		opds = f.opds
	}
	sep := " "
	for _, o := range opds {
		r := o.Reg(in)
		switch {
		case o == skip,
			(o == VM || o == VMemMask) && !in.Masked,
			(o == Rs1Opt || o == Rs2Opt) && *r == RegNone:
			continue
		}
		dst = append(dst, sep...)
		sep = ", "
		switch o {
		case MemI, MemS:
			dst = sp.AppendImm(dst, o, in.Imm)
			fallthrough
		case Base:
			dst = append(sp.AppendReg(append(dst, '('), r), ')')
		case ImmU:
			dst = sp.AppendImm(dst, o, in.Imm>>12)
		case MsbLsb:
			dst = strconv.AppendInt(dst, in.Imm>>6&63, 10)
			dst = strconv.AppendInt(append(dst, sep...), in.Imm&63, 10)
		case CSRNum:
			dst = append(dst, CSRName(in.CSR)...)
		case VM, VMemMask:
			dst = append(dst, "v0.t"...)
		default:
			if r != nil {
				dst = sp.AppendReg(dst, r)
			} else {
				dst = sp.AppendImm(dst, o, in.Imm)
			}
		}
	}
	return dst
}
