package isa

import (
	"strconv"
	"strings"
)

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
// (Inst field, file, bit position) and the immediate's layout.
var operands = [numOperands]struct {
	field, shift uint8
	file         Reg
	imm          immField
}{
	RdX: {field: fRd, shift: 7}, RdF: {field: fRd, shift: 7, file: RegF0}, RdV: {field: fRd, shift: 7, file: RegV0},
	Rs1X: {field: fRs1, shift: 15}, Rs1F: {field: fRs1, shift: 15, file: RegF0}, Rs1V: {field: fRs1, shift: 15, file: RegV0},
	Rs2X: {field: fRs2, shift: 20}, Rs2F: {field: fRs2, shift: 20, file: RegF0}, Rs2V: {field: fRs2, shift: 20, file: RegV0},
	Rs3F:   {field: fRs3, shift: 27, file: RegF0},
	Rs1Opt: {field: fRs1, shift: 15}, Rs2Opt: {field: fRs2, shift: 20},
	VData:   {field: fRs2, shift: 7, file: RegV0},
	VStride: {field: fRs3, shift: 20}, VIndex: {field: fRs3, shift: 20, file: RegV0},
	Base: {field: fRs1, shift: 15},
	MemI: {field: fRs1, shift: 15, imm: simm("31=11:0")},
	MemS: {field: fRs1, shift: 15, imm: simm("31=11:5 11=4:0")},

	ImmI:   {imm: simm("31=11:0")},
	ImmB:   {imm: simm("31=12|10:5 11=4:1|11")},
	ImmU:   {imm: simm("31=31:12")},
	ImmJ:   {imm: simm("31=20|10:1|11|19:12")},
	Shamt6: {imm: uimm("25=5:0")}, Shamt5: {imm: uimm("24=4:0")},
	Uimm5: {imm: uimm("19=4:0")}, Simm5: {imm: simm("19=4:0")},
	Shift2: {imm: uimm("26=1:0")}, MsbLsb: {imm: uimm("31=11:0")}, VTypeImm: {imm: uimm("30=10:0")},
}

// immField is an immediate's bit layout: segments, each holding immediate
// bits hi:lo at instruction bits at+hi-lo:at, sign-extended from bit
// width-1 when signed; and what follows from them, the values it holds
// exactly: lo..hi in steps of align. It is the one statement of the layout:
// place, extract, ImmRange and both RVC directions read it. The zero
// immField is no immediate: it extracts as 0 and holds only 0.
type immField struct {
	segs          []immSeg
	signed        bool
	width         uint
	lo, hi, align int64
}

type immSeg struct{ hi, lo, at uint8 }

func (s immSeg) ones() uint32 { return 1<<(s.hi-s.lo+1) - 1 }

// simm and uimm read a layout as the RISC-V spec draws it: groups "P=bits",
// each filling the instruction downwards from bit P with the immediate bits
// listed, "|"-separated single bits or hi:lo runs. The B-type
// "31=12|10:5 11=4:1|11" puts imm[12] at bit 31, imm[10:5] at bits 30:25,
// imm[4:1] at 11:8 and imm[11] at 7. TestOpMetaComplete and
// TestRVCFormsComplete check every layout.
func simm(layout string) immField { return newImmField(layout, true) }
func uimm(layout string) immField { return newImmField(layout, false) }

func newImmField(layout string, signed bool) immField {
	num := func(s string) uint8 { n, _ := strconv.Atoi(s); return uint8(n) }
	m := immField{signed: signed}
	low := uint8(63)
	for _, group := range strings.Fields(layout) {
		top, bits, _ := strings.Cut(group, "=")
		at := num(top) + 1
		for _, run := range strings.Split(bits, "|") {
			hi, lo, isRun := strings.Cut(run, ":")
			s := immSeg{hi: num(hi), lo: num(hi)}
			if isRun {
				s.lo = num(lo)
			}
			at -= s.hi - s.lo + 1
			s.at = at
			m.segs = append(m.segs, s)
			m.width, low = max(m.width, uint(s.hi)+1), min(low, s.lo)
		}
	}
	m.align = 1 << low
	if signed {
		m.lo, m.hi = -1<<(m.width-1), 1<<(m.width-1)-m.align
	} else {
		m.hi = 1<<m.width - m.align
	}
	return m
}

// get is the one extract loop: it gathers the segments of raw.
func (m *immField) get(raw uint32) int64 {
	var v uint32
	for _, s := range m.segs {
		v |= raw >> s.at & s.ones() << s.lo
	}
	if m.signed {
		return int64(int32(v<<(32-m.width))) >> (32 - m.width)
	}
	return int64(v)
}

// put is the one place loop: it scatters v into the segments, truncated to
// them.
func (m *immField) put(v int64) uint32 {
	var raw uint32
	for _, s := range m.segs {
		raw |= uint32(v) >> s.lo & s.ones() << s.at
	}
	return raw
}

// holds reports whether v is one of the values the layout holds exactly.
func (m *immField) holds(v int64) bool { return v >= m.lo && v <= m.hi && v&(m.align-1) == 0 }

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
	w |= operands[o].imm.put(in.Imm)
	switch o {
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
	if m := &operands[o].imm; m.segs != nil {
		in.Imm = m.get(raw)
	}
	switch o {
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
