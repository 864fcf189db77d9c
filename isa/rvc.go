package isa

// RVC, the compressed instructions. The XT-910 fetches 128-bit lines holding
// up to eight of them (§III), so code density shapes the front end. The model
// implements all of RV64C, one row of rvcForms per form; Decode16 and
// Compress both read the rows.

// cForm is one RV64C form: the bits it fixes, the op it expands to, and where
// that op's operands sit in the parcel.
type cForm struct {
	name         string
	match        uint16
	op           Op
	rd, rs1, rs2 cReg
	imm          immField
	// except: a parcel whose expansion meets one of these is not this form
	// but another row's, or reserved (ILLEGAL). hint: encodings Decode16
	// expands and Compress does not emit (the spec's HINTs).
	except, hint cCond
	mask         uint16 // every bit no operand holds; set at init
}

// cReg is where a register operand comes from: the parcel field
// mask<<at, naming base+field (mask 0: base itself). The zero cReg is an
// operand the expansion does not have.
type cReg struct {
	at   uint8
	mask uint16
	base Reg
	set  bool
}

// The register operands, by file and parcel bits; a three-bit field is the
// x8–x15 or f8–f15 window. An rs1 in rd's field is tied to rd.
var (
	x11_7  = cReg{7, 31, RegX0, true}
	x6_2   = cReg{2, 31, RegX0, true}
	f11_7  = cReg{7, 31, RegF0, true}
	f6_2   = cReg{2, 31, RegF0, true}
	x9_7   = cReg{7, 7, RegX0 + 8, true}
	x4_2   = cReg{2, 7, RegX0 + 8, true}
	f4_2   = cReg{2, 7, RegF0 + 8, true}
	isZero = cReg{base: Zero, set: true}
	isRA   = cReg{base: RA, set: true}
	isSP   = cReg{base: SP, set: true}
)

// cCond is a set of conditions on an expansion.
type cCond uint8

const (
	rdZero cCond = 1 << iota
	rdSP
	rs1Zero
	rs2Zero
	immZero
)

func (c cCond) any(in *Inst) bool {
	return c&rdZero != 0 && in.Rd == Zero || c&rdSP != 0 && in.Rd == SP ||
		c&rs1Zero != 0 && in.Rs1 == Zero || c&rs2Zero != 0 && in.Rs2 == Zero ||
		c&immZero != 0 && in.Imm == 0
}

// rvcForms is RV64C in the spec's order, quadrant then funct3. Compress tries
// an op's rows in this order; the one choice that settles is `addi sp, sp, 16`
// (c.addi, not c.addi16sp).
var rvcForms = [...]cForm{
	{name: "c.addi4spn", match: 0x0000, op: ADDI, rd: x4_2, rs1: isSP, imm: uimm("12=5:4|9:6|2|3"), except: immZero},
	{name: "c.fld", match: 0x2000, op: FLD, rd: f4_2, rs1: x9_7, imm: uimm("12=5:3 6=7:6")},
	{name: "c.lw", match: 0x4000, op: LW, rd: x4_2, rs1: x9_7, imm: uimm("12=5:3 6=2|6")},
	{name: "c.ld", match: 0x6000, op: LD, rd: x4_2, rs1: x9_7, imm: uimm("12=5:3 6=7:6")},
	{name: "c.fsd", match: 0xa000, op: FSD, rs1: x9_7, rs2: f4_2, imm: uimm("12=5:3 6=7:6")},
	{name: "c.sw", match: 0xc000, op: SW, rs1: x9_7, rs2: x4_2, imm: uimm("12=5:3 6=2|6")},
	{name: "c.sd", match: 0xe000, op: SD, rs1: x9_7, rs2: x4_2, imm: uimm("12=5:3 6=7:6")},

	{name: "c.addi", match: 0x0001, op: ADDI, rd: x11_7, rs1: x11_7, imm: simm("12=5 6=4:0"), hint: rdZero | immZero},
	{name: "c.addiw", match: 0x2001, op: ADDIW, rd: x11_7, rs1: x11_7, imm: simm("12=5 6=4:0"), except: rdZero},
	{name: "c.li", match: 0x4001, op: ADDI, rd: x11_7, rs1: isZero, imm: simm("12=5 6=4:0")},
	{name: "c.addi16sp", match: 0x6101, op: ADDI, rd: isSP, rs1: isSP, imm: simm("12=9 6=4|6|8:7|5"), except: immZero},
	{name: "c.lui", match: 0x6001, op: LUI, rd: x11_7, imm: simm("12=17 6=16:12"), except: rdZero | rdSP | immZero},
	{name: "c.srli", match: 0x8001, op: SRLI, rd: x9_7, rs1: x9_7, imm: uimm("12=5 6=4:0"), hint: immZero},
	{name: "c.srai", match: 0x8401, op: SRAI, rd: x9_7, rs1: x9_7, imm: uimm("12=5 6=4:0"), hint: immZero},
	{name: "c.andi", match: 0x8801, op: ANDI, rd: x9_7, rs1: x9_7, imm: simm("12=5 6=4:0")},
	{name: "c.sub", match: 0x8c01, op: SUB, rd: x9_7, rs1: x9_7, rs2: x4_2},
	{name: "c.xor", match: 0x8c21, op: XOR, rd: x9_7, rs1: x9_7, rs2: x4_2},
	{name: "c.or", match: 0x8c41, op: OR, rd: x9_7, rs1: x9_7, rs2: x4_2},
	{name: "c.and", match: 0x8c61, op: AND, rd: x9_7, rs1: x9_7, rs2: x4_2},
	{name: "c.subw", match: 0x9c01, op: SUBW, rd: x9_7, rs1: x9_7, rs2: x4_2},
	{name: "c.addw", match: 0x9c21, op: ADDW, rd: x9_7, rs1: x9_7, rs2: x4_2},
	{name: "c.j", match: 0xa001, op: JAL, rd: isZero, imm: simm("12=11|4|9:8|10|6|7|3:1|5")},
	{name: "c.beqz", match: 0xc001, op: BEQ, rs1: x9_7, rs2: isZero, imm: simm("12=8|4:3 6=7:6|2:1|5")},
	{name: "c.bnez", match: 0xe001, op: BNE, rs1: x9_7, rs2: isZero, imm: simm("12=8|4:3 6=7:6|2:1|5")},

	{name: "c.slli", match: 0x0002, op: SLLI, rd: x11_7, rs1: x11_7, imm: uimm("12=5 6=4:0"), hint: rdZero | immZero},
	{name: "c.fldsp", match: 0x2002, op: FLD, rd: f11_7, rs1: isSP, imm: uimm("12=5 6=4:3|8:6")},
	{name: "c.lwsp", match: 0x4002, op: LW, rd: x11_7, rs1: isSP, imm: uimm("12=5 6=4:2|7:6"), except: rdZero},
	{name: "c.ldsp", match: 0x6002, op: LD, rd: x11_7, rs1: isSP, imm: uimm("12=5 6=4:3|8:6"), except: rdZero},
	{name: "c.jr", match: 0x8002, op: JALR, rd: isZero, rs1: x11_7, except: rs1Zero},
	{name: "c.mv", match: 0x8002, op: ADD, rd: x11_7, rs1: isZero, rs2: x6_2, except: rs2Zero, hint: rdZero},
	{name: "c.ebreak", match: 0x9002, op: EBREAK},
	{name: "c.jalr", match: 0x9002, op: JALR, rd: isRA, rs1: x11_7, except: rs1Zero},
	{name: "c.add", match: 0x9002, op: ADD, rd: x11_7, rs1: x11_7, rs2: x6_2, except: rs2Zero, hint: rdZero},
	{name: "c.fsdsp", match: 0xa002, op: FSD, rs1: isSP, rs2: f6_2, imm: uimm("12=5:3|8:6")},
	{name: "c.swsp", match: 0xc002, op: SW, rs1: isSP, rs2: x6_2, imm: uimm("12=5:2|7:6")},
	{name: "c.sdsp", match: 0xe002, op: SD, rs1: isSP, rs2: x6_2, imm: uimm("12=5:3|8:6")},
}

// The indexes, built once from the table: the rows a parcel of quadrant q and
// funct3 f3 may be are rvcByBucket[q<<3|f3]; the rows that expand to op, in
// table order, rvcByOp[op].
var (
	rvcByBucket [32][]*cForm
	rvcByOp     [numOps][]*cForm
)

func init() {
	for i := range rvcForms {
		f := &rvcForms[i]
		f.mask = ^(f.rd.bits() | f.rs1.bits() | f.rs2.bits() | uint16(f.imm.put(-1)))
		b := f.match&3<<3 | f.match>>13
		rvcByBucket[b] = append(rvcByBucket[b], f)
		rvcByOp[f.op] = append(rvcByOp[f.op], f)
	}
}

func (r cReg) bits() uint16 { return r.mask << r.at }

func (r cReg) get(raw uint16) Reg {
	if !r.set {
		return RegNone
	}
	return r.base + Reg(raw>>r.at&r.mask)
}

// put places v truncated to the field; holds then says whether it fit.
func (r cReg) put(v Reg) uint16 { return uint16(v-r.base) & r.mask << r.at }

// holds reports whether raw names v, or the form has no such operand.
func (r cReg) holds(raw uint16, v Reg) bool { return !r.set || r.get(raw) == v }

// decode expands raw as this form into in, reporting false when raw is not
// one.
func (f *cForm) decode(raw uint16, in *Inst) bool {
	if raw&f.mask != f.match {
		return false
	}
	*in = Inst{Op: f.op, Rd: f.rd.get(raw), Rs1: f.rs1.get(raw), Rs2: f.rs2.get(raw), Rs3: RegNone,
		Imm: f.imm.get(uint32(raw)), Size: 2}
	return !f.except.any(in)
}

// compress places in's operands as this form, reporting false unless each
// register reads back as placed (which checks windows, files and tied
// registers) and the immediate is one its layout holds.
func (f *cForm) compress(in *Inst) (uint16, bool) {
	raw := f.match | f.rd.put(in.Rd) | f.rs1.put(in.Rs1) | f.rs2.put(in.Rs2)
	if !f.rd.holds(raw, in.Rd) || !f.rs1.holds(raw, in.Rs1) || !f.rs2.holds(raw, in.Rs2) ||
		!f.imm.holds(in.Imm) || (f.except | f.hint).any(in) {
		return 0, false
	}
	return raw | uint16(f.imm.put(in.Imm)), true
}

// Decode16 expands a 16-bit compressed instruction to its full Inst.
// Unrecognized encodings decode to ILLEGAL with Size 2.
func Decode16(raw uint16) (in Inst) {
	for _, f := range rvcByBucket[raw&3<<3|raw>>13] {
		if f.decode(raw, &in) {
			return in
		}
	}
	in = NewInst(ILLEGAL)
	in.Size = 2
	return in
}

// Compress attempts to produce a 16-bit encoding of the instruction. It
// returns (0, false) when no compressed form exists. The assembler uses it to
// model the code density the XT-910 front end was designed around.
func Compress(in Inst) (uint16, bool) {
	if in.Op < numOps {
		for _, f := range rvcByOp[in.Op] {
			if raw, ok := f.compress(&in); ok {
				return raw, true
			}
		}
	}
	return 0, false
}
