package isa

import "fmt"

// Major opcodes (bits [6:0] of a 32-bit instruction).
const (
	opcLoad    = 0x03
	opcLoadFP  = 0x07
	opcMiscMem = 0x0F
	opcOpImm   = 0x13
	opcAuipc   = 0x17
	opcOpImm32 = 0x1B
	opcStore   = 0x23
	opcStoreFP = 0x27
	opcAMO     = 0x2F
	opcOp      = 0x33
	opcLui     = 0x37
	opcOp32    = 0x3B
	opcFMAdd   = 0x43
	opcFMSub   = 0x47
	opcOpFP    = 0x53
	opcOpV     = 0x57
	opcBranch  = 0x63
	opcJALR    = 0x67
	opcJAL     = 0x6F
	opcSystem  = 0x73
	opcCustom0 = 0x0B
)

func encR(opc, f3, f7 uint32, rd, rs1, rs2 Reg) uint32 {
	return opc | uint32(rd.Index())<<7 | f3<<12 | uint32(rs1.Index())<<15 |
		uint32(rs2.Index())<<20 | f7<<25
}

func encI(opc, f3 uint32, rd, rs1 Reg, imm int64) uint32 {
	return opc | uint32(rd.Index())<<7 | f3<<12 | uint32(rs1.Index())<<15 |
		uint32(imm&0xFFF)<<20
}

func encS(opc, f3 uint32, rs1, rs2 Reg, imm int64) uint32 {
	return opc | uint32(imm&0x1F)<<7 | f3<<12 | uint32(rs1.Index())<<15 |
		uint32(rs2.Index())<<20 | uint32((imm>>5)&0x7F)<<25
}

func encB(opc, f3 uint32, rs1, rs2 Reg, imm int64) uint32 {
	u := uint32(imm)
	return opc | (u>>11&1)<<7 | (u>>1&0xF)<<8 | f3<<12 |
		uint32(rs1.Index())<<15 | uint32(rs2.Index())<<20 |
		(u>>5&0x3F)<<25 | (u>>12&1)<<31
}

func encU(opc uint32, rd Reg, imm int64) uint32 {
	return opc | uint32(rd.Index())<<7 | uint32(imm)&0xFFFFF000
}

func encJ(opc uint32, rd Reg, imm int64) uint32 {
	u := uint32(imm)
	return opc | uint32(rd.Index())<<7 | (u>>12&0xFF)<<12 | (u>>11&1)<<20 |
		(u>>1&0x3FF)<<21 | (u>>20&1)<<31
}

func encR4(opc, fmt2 uint32, rd, rs1, rs2, rs3 Reg) uint32 {
	return opc | uint32(rd.Index())<<7 | uint32(rs1.Index())<<15 |
		uint32(rs2.Index())<<20 | fmt2<<25 | uint32(rs3.Index())<<27
}

// rEnc describes a plain R-type encoding.
type rEnc struct{ f3, f7 uint32 }

var opRType = map[Op]rEnc{
	ADD: {0, 0x00}, SUB: {0, 0x20}, SLL: {1, 0}, SLT: {2, 0}, SLTU: {3, 0},
	XOR: {4, 0}, SRL: {5, 0}, SRA: {5, 0x20}, OR: {6, 0}, AND: {7, 0},
	MUL: {0, 1}, MULH: {1, 1}, MULHSU: {2, 1}, MULHU: {3, 1},
	DIV: {4, 1}, DIVU: {5, 1}, REM: {6, 1}, REMU: {7, 1},
}

var op32RType = map[Op]rEnc{
	ADDW: {0, 0x00}, SUBW: {0, 0x20}, SLLW: {1, 0}, SRLW: {5, 0}, SRAW: {5, 0x20},
	MULW: {0, 1}, DIVW: {4, 1}, DIVUW: {5, 1}, REMW: {6, 1}, REMUW: {7, 1},
}

var opImmF3 = map[Op]uint32{
	ADDI: 0, SLTI: 2, SLTIU: 3, XORI: 4, ORI: 6, ANDI: 7,
}

var loadF3 = map[Op]uint32{
	LB: 0, LH: 1, LW: 2, LD: 3, LBU: 4, LHU: 5, LWU: 6,
}

var storeF3 = map[Op]uint32{SB: 0, SH: 1, SW: 2, SD: 3}

var branchF3 = map[Op]uint32{
	BEQ: 0, BNE: 1, BLT: 4, BGE: 5, BLTU: 6, BGEU: 7,
}

var csrF3 = map[Op]uint32{
	CSRRW: 1, CSRRS: 2, CSRRC: 3, CSRRWI: 5, CSRRSI: 6, CSRRCI: 7,
}

// amoF5 holds funct5 values (instruction bits [31:27]).
var amoF5 = map[Op]struct {
	f3 uint32
	f5 uint32
}{
	LRW: {2, 0x02}, LRD: {3, 0x02}, SCW: {2, 0x03}, SCD: {3, 0x03},
	AMOSWAPW: {2, 0x01}, AMOSWAPD: {3, 0x01},
	AMOADDW: {2, 0x00}, AMOADDD: {3, 0x00},
	AMOXORW: {2, 0x04}, AMOXORD: {3, 0x04},
	AMOANDW: {2, 0x0C}, AMOANDD: {3, 0x0C},
	AMOORW: {2, 0x08}, AMOORD: {3, 0x08},
	AMOMINW: {2, 0x10}, AMOMIND: {3, 0x10},
	AMOMAXW: {2, 0x14}, AMOMAXD: {3, 0x14},
}

// fpREnc: OP-FP encodings. f3 is the funct3 value (rounding-mode field for
// arithmetic, selector for sign-injection/min-max/compare); rs2sel is the
// rs2 field value for single-source conversions (-1 when rs2 is a register).
type fpEnc struct {
	f7     uint32
	f3     int8 // -1: rounding mode field, encoded as 0
	rs2sel int8 // -1: real rs2 operand
}

var opFPEnc = map[Op]fpEnc{
	FADDS: {0x00, -1, -1}, FSUBS: {0x04, -1, -1}, FMULS: {0x08, -1, -1},
	FDIVS: {0x0C, -1, -1}, FSQRTS: {0x2C, -1, 0},
	FADDD: {0x01, -1, -1}, FSUBD: {0x05, -1, -1}, FMULD: {0x09, -1, -1},
	FDIVD: {0x0D, -1, -1}, FSQRTD: {0x2D, -1, 0},
	FSGNJS: {0x10, 0, -1}, FSGNJNS: {0x10, 1, -1}, FSGNJXS: {0x10, 2, -1},
	FSGNJD: {0x11, 0, -1}, FSGNJND: {0x11, 1, -1}, FSGNJXD: {0x11, 2, -1},
	FMINS: {0x14, 0, -1}, FMAXS: {0x14, 1, -1},
	FMIND: {0x15, 0, -1}, FMAXD: {0x15, 1, -1},
	FCVTWS: {0x60, -1, 0}, FCVTLS: {0x60, -1, 2},
	FCVTSW: {0x68, -1, 0}, FCVTSL: {0x68, -1, 2},
	FCVTWD: {0x61, -1, 0}, FCVTLD: {0x61, -1, 2},
	FCVTDW: {0x69, -1, 0}, FCVTDL: {0x69, -1, 2},
	FCVTSD: {0x20, -1, 1}, FCVTDS: {0x21, -1, 0},
	FMVXW: {0x70, 0, 0}, FMVWX: {0x78, 0, 0},
	FMVXD: {0x71, 0, 0}, FMVDX: {0x79, 0, 0},
	FEQS: {0x50, 2, -1}, FLTS: {0x50, 1, -1}, FLES: {0x50, 0, -1},
	FEQD: {0x51, 2, -1}, FLTD: {0x51, 1, -1}, FLED: {0x51, 0, -1},
}

// Vector funct6 assignments (mostly following the 0.7.1 layout); f3 selects
// the operand category: 0=OPIVV, 1=OPFVV, 2=OPMVV, 3=OPIVI, 4=OPIVX, 6=OPMVX.
type vEnc struct{ f6, f3 uint32 }

var opVEnc = map[Op]vEnc{
	VADDVV: {0x00, 0}, VADDVX: {0x00, 4}, VADDVI: {0x00, 3},
	VSUBVV: {0x02, 0}, VSUBVX: {0x02, 4},
	VMINVV: {0x05, 0}, VMAXVV: {0x07, 0},
	VANDVV: {0x09, 0}, VORVV: {0x0A, 0}, VXORVV: {0x0B, 0},
	VSLLVV: {0x25, 0}, VSRLVV: {0x28, 0},
	VMVVV: {0x17, 0}, VMVVX: {0x17, 4},
	VMULVV: {0x25, 2}, VMULVX: {0x25, 6},
	VMACCVV: {0x2D, 2}, VWMACCVV: {0x3D, 2},
	VDIVVV: {0x21, 2}, VREMVV: {0x23, 2},
	VREDSUMVS: {0x00, 2}, VREDMAXVS: {0x07, 2},
	VMVXS: {0x10, 2}, VMVSX: {0x10, 6},
	VFADDVV: {0x00, 1}, VFSUBVV: {0x02, 1},
	VFMULVV: {0x24, 1}, VFDIVVV: {0x20, 1},
	VFMACCVV: {0x2C, 1}, VFREDSUMVS: {0x01, 1},
	VMSEQVV: {0x18, 0},
}

// vmemF7 composes the funct7 field of a vector memory op: bit 0 (instruction
// bit 25) set marks a masked access. Note the polarity is inverted relative
// to the opcOpV vm bit (where vm=1 means unmasked) so that the pre-existing
// unit-stride/strided encodings with f7=0x00/0x08 stay byte-identical.
func vmemF7(base uint32, masked bool) uint32 {
	if masked {
		return base | 1
	}
	return base
}

var xCacheOpImm = map[Op]int64{
	XDCACHECALL: 0, XDCACHEIALL: 1, XDCACHECVA: 2, XDCACHEIVA: 3,
	XICACHEIALL: 4, XSYNC: 5, XTLBIASID: 6, XTLBIVA: 7,
}

var xIdxLoadSub = map[Op]uint32{
	XLRB: 0, XLRH: 1, XLRW: 2, XLRD: 3, XLURB: 4, XLURH: 5, XLURW: 6,
}

var xIdxStoreSub = map[Op]uint32{XSRB: 0, XSRH: 1, XSRW: 2, XSRD: 3}

var xRTypeSub = map[Op]uint32{
	XREV: 0x02, XFF0: 0x03, XFF1: 0x04, XTSTNBZ: 0x05,
	XMVEQZ: 0x10, XMVNEZ: 0x11,
	XMULA: 0x20, XMULS: 0x21, XMULAH: 0x22, XMULSH: 0x23,
	XMULAW: 0x24, XMULSW: 0x25,
}

// encForm names the field layout an op encodes to; encRec is everything
// Encode needs to know about one op. encTab is filled once from the tables
// above (which also feed the decoder's reverse maps), so Encode itself is one
// array index and a switch.
type encForm uint8

const (
	encNone        encForm = iota
	encFormU               // rd, imm[31:12]
	encFormJ               // rd, ±1 MiB offset
	encFormI               // rd, rs1, simm12
	encFormS               // rs1, rs2, simm12
	encFormB               // rs1, rs2, ±4 KiB offset
	encFormR               // rd, rs1, rs2
	encFormSh              // rd, rs1, shamt6 (a holds funct6)
	encFormShW             // rd, rs1, shamt5 in the rs2 field
	encFormCSR             // rd, csr, rs1
	encFormCSRI            // rd, csr, uimm5 in the rs1 field
	encFormAMO             // rd, rs1, rs2 (a holds funct5)
	encFormLR              // rd, rs1
	encFormFP              // rd, rs1, rs2 or a fixed rs2 selector (b, -1: register)
	encFormV               // OP-V (a holds funct6)
	encFormWord            // no operands: a is the whole word
	encFormSFence          // rs1, rs2, both optional
	encFormR4              // rd, rs1, rs2, rs3 (f3 holds the format field)
	encFormVSetVLI         // rd, rs1, vtype11
	encFormVLoad           // vd, rs1, rs2 when b != 0 (a holds the funct7 base)
	encFormVStore          // vs (Rs2), rs1, Rs3 when b != 0
	encFormXSh2            // rd, rs1, rs2, 2-bit shift (a holds the funct7 base)
	encFormXImm            // rd, rs1, unsigned immediate masked by a
	encFormXR              // rd, rs1, optional rs2 (a holds funct7)
	encFormXCache          // optional rs1 (a holds the imm12 selector)
)

type encRec struct {
	form encForm
	b    int8
	opc  uint32
	f3   uint32
	a    uint32
}

var encTab [numOps]encRec

func init() {
	set := func(op Op, r encRec) {
		if encTab[op].form != encNone {
			panic("isa: two encodings for " + op.String())
		}
		encTab[op] = r
	}
	set(LUI, encRec{form: encFormU, opc: opcLui})
	set(AUIPC, encRec{form: encFormU, opc: opcAuipc})
	set(JAL, encRec{form: encFormJ, opc: opcJAL})
	set(JALR, encRec{form: encFormI, opc: opcJALR})
	for op, f3 := range branchF3 {
		set(op, encRec{form: encFormB, opc: opcBranch, f3: f3})
	}
	for op, f3 := range loadF3 {
		set(op, encRec{form: encFormI, opc: opcLoad, f3: f3})
	}
	for op, f3 := range storeF3 {
		set(op, encRec{form: encFormS, opc: opcStore, f3: f3})
	}
	for op, f3 := range opImmF3 {
		set(op, encRec{form: encFormI, opc: opcOpImm, f3: f3})
	}
	for op, e := range opRType {
		set(op, encRec{form: encFormR, opc: opcOp, f3: e.f3, a: e.f7})
	}
	for op, e := range op32RType {
		set(op, encRec{form: encFormR, opc: opcOp32, f3: e.f3, a: e.f7})
	}
	for op, f3 := range csrF3 {
		form := encFormCSR
		if op == CSRRWI || op == CSRRSI || op == CSRRCI {
			form = encFormCSRI
		}
		set(op, encRec{form: form, opc: opcSystem, f3: f3})
	}
	for op, e := range amoF5 {
		form := encFormAMO
		if op == LRW || op == LRD {
			form = encFormLR
		}
		set(op, encRec{form: form, opc: opcAMO, f3: e.f3, a: e.f5 << 2})
	}
	for op, e := range opFPEnc {
		f3 := uint32(0)
		if e.f3 >= 0 {
			f3 = uint32(e.f3)
		}
		set(op, encRec{form: encFormFP, opc: opcOpFP, f3: f3, a: e.f7, b: e.rs2sel})
	}
	for op, e := range opVEnc {
		set(op, encRec{form: encFormV, opc: opcOpV, f3: e.f3, a: e.f6})
	}
	set(SLLI, encRec{form: encFormSh, opc: opcOpImm, f3: 1})
	set(SRLI, encRec{form: encFormSh, opc: opcOpImm, f3: 5})
	set(SRAI, encRec{form: encFormSh, opc: opcOpImm, f3: 5, a: 0x10})
	set(ADDIW, encRec{form: encFormI, opc: opcOpImm32})
	set(SLLIW, encRec{form: encFormShW, opc: opcOpImm32, f3: 1})
	set(SRLIW, encRec{form: encFormShW, opc: opcOpImm32, f3: 5})
	set(SRAIW, encRec{form: encFormShW, opc: opcOpImm32, f3: 5, a: 0x20})
	set(FENCE, encRec{form: encFormWord, a: encI(opcMiscMem, 0, X(0), X(0), 0x0FF)})
	set(FENCEI, encRec{form: encFormWord, a: encI(opcMiscMem, 1, X(0), X(0), 0)})
	set(ECALL, encRec{form: encFormWord, a: encI(opcSystem, 0, X(0), X(0), 0)})
	set(EBREAK, encRec{form: encFormWord, a: encI(opcSystem, 0, X(0), X(0), 1)})
	set(MRET, encRec{form: encFormWord, a: encI(opcSystem, 0, X(0), X(0), 0x302)})
	set(SRET, encRec{form: encFormWord, a: encI(opcSystem, 0, X(0), X(0), 0x102)})
	set(WFI, encRec{form: encFormWord, a: encI(opcSystem, 0, X(0), X(0), 0x105)})
	set(SFENCEVMA, encRec{form: encFormSFence, opc: opcSystem, a: 0x09})
	set(FLW, encRec{form: encFormI, opc: opcLoadFP, f3: 2})
	set(FLD, encRec{form: encFormI, opc: opcLoadFP, f3: 3})
	set(FSW, encRec{form: encFormS, opc: opcStoreFP, f3: 2})
	set(FSD, encRec{form: encFormS, opc: opcStoreFP, f3: 3})
	set(FMADDS, encRec{form: encFormR4, opc: opcFMAdd, f3: 0})
	set(FMADDD, encRec{form: encFormR4, opc: opcFMAdd, f3: 1})
	set(FMSUBS, encRec{form: encFormR4, opc: opcFMSub, f3: 0})
	set(FMSUBD, encRec{form: encFormR4, opc: opcFMSub, f3: 1})
	set(VSETVLI, encRec{form: encFormVSetVLI, opc: opcOpV, f3: 7})
	set(VSETVL, encRec{form: encFormR, opc: opcOpV, f3: 7, a: 0x40})
	set(VLE, encRec{form: encFormVLoad, opc: opcLoadFP, f3: 7, a: 0x00})
	set(VLSE, encRec{form: encFormVLoad, opc: opcLoadFP, f3: 7, a: 0x08, b: 1})
	set(VLXEI, encRec{form: encFormVLoad, opc: opcLoadFP, f3: 7, a: 0x0C, b: 1}) // index vector in the rs2 field
	// store layout mirrors the load: vs3 (data) in the rd slot
	set(VSE, encRec{form: encFormVStore, opc: opcStoreFP, f3: 7, a: 0x00})
	set(VSSE, encRec{form: encFormVStore, opc: opcStoreFP, f3: 7, a: 0x08, b: 1})
	set(VSXEI, encRec{form: encFormVStore, opc: opcStoreFP, f3: 7, a: 0x0C, b: 1})
	set(XADDSL, encRec{form: encFormXSh2, opc: opcCustom0, f3: 3})
	set(XEXT, encRec{form: encFormXImm, opc: opcCustom0, f3: 4, a: 0xFFF})
	set(XEXTU, encRec{form: encFormXImm, opc: opcCustom0, f3: 5, a: 0xFFF})
	set(XSRRI, encRec{form: encFormXImm, opc: opcCustom0, f3: 6, a: 0x3F})
	for op, sub := range xIdxLoadSub {
		set(op, encRec{form: encFormXSh2, opc: opcCustom0, f3: 1, a: sub << 2})
	}
	for op, sub := range xIdxStoreSub {
		// data register travels in the rd field for the custom store form
		set(op, encRec{form: encFormXSh2, opc: opcCustom0, f3: 2, a: sub << 2})
	}
	for op, sub := range xRTypeSub {
		set(op, encRec{form: encFormXR, opc: opcCustom0, a: sub})
	}
	for op, imm := range xCacheOpImm {
		set(op, encRec{form: encFormXCache, opc: opcCustom0, f3: 7, a: uint32(imm)})
	}
}

// orX0 reads an optional register operand: absent means x0.
func orX0(r Reg) Reg {
	if r == RegNone {
		return X(0)
	}
	return r
}

// Encode produces the 32-bit encoding of an instruction. RVC compression is a
// separate, optional step (Compress). Immediates are truncated to their field;
// ImmRange gives the bounds a caller that must not truncate checks first.
func Encode(in Inst) (uint32, error) {
	if in.Op >= numOps {
		return 0, fmt.Errorf("isa: cannot encode %v", in.Op)
	}
	e := &encTab[in.Op]
	switch e.form {
	case encFormU:
		return encU(e.opc, in.Rd, in.Imm), nil
	case encFormJ:
		return encJ(e.opc, in.Rd, in.Imm), nil
	case encFormI:
		return encI(e.opc, e.f3, in.Rd, in.Rs1, in.Imm), nil
	case encFormS:
		return encS(e.opc, e.f3, in.Rs1, in.Rs2, in.Imm), nil
	case encFormB:
		return encB(e.opc, e.f3, in.Rs1, in.Rs2, in.Imm), nil
	case encFormR, encFormAMO:
		return encR(e.opc, e.f3, e.a, in.Rd, in.Rs1, in.Rs2), nil
	case encFormSh:
		return encI(e.opc, e.f3, in.Rd, in.Rs1, in.Imm&0x3F|int64(e.a)<<6), nil
	case encFormShW:
		return encR(e.opc, e.f3, e.a, in.Rd, in.Rs1, X(int(in.Imm)&0x1F)), nil
	case encFormCSR:
		return encI(e.opc, e.f3, in.Rd, in.Rs1, int64(in.CSR)), nil
	case encFormCSRI:
		return encI(e.opc, e.f3, in.Rd, Reg(in.Imm&0x1F), int64(in.CSR)), nil
	case encFormLR:
		return encR(e.opc, e.f3, e.a, in.Rd, in.Rs1, X(0)), nil
	case encFormFP:
		rs2 := in.Rs2
		if e.b >= 0 {
			rs2 = X(int(e.b))
		}
		return encR(e.opc, e.f3, e.a, in.Rd, in.Rs1, rs2), nil
	case encFormV:
		second := orX0(in.Rs1)
		if e.f3 == 3 { // OPIVI: immediate in rs1 slot
			second = X(int(in.Imm) & 0x1F)
		}
		vs2 := in.Rs2
		if vs2 == RegNone {
			vs2 = V(0)
		}
		vm := uint32(1) // vm=1: unmasked
		if in.Masked {
			vm = 0
		}
		// vector R-layout: vd | f3 | vs1/rs1/imm | vs2 | vm | funct6
		return e.opc | uint32(in.Rd.Index())<<7 | e.f3<<12 |
			uint32(second.Index())<<15 | uint32(vs2.Index())<<20 |
			vm<<25 | e.a<<26, nil
	case encFormWord:
		return e.a, nil
	case encFormSFence:
		return encR(e.opc, 0, e.a, X(0), orX0(in.Rs1), orX0(in.Rs2)), nil
	case encFormR4:
		return encR4(e.opc, e.f3, in.Rd, in.Rs1, in.Rs2, in.Rs3), nil
	case encFormVSetVLI:
		return encI(e.opc, e.f3, in.Rd, in.Rs1, in.Imm&0x7FF), nil
	case encFormVLoad:
		rs2 := X(0)
		if e.b != 0 {
			rs2 = in.Rs2
		}
		return encR(e.opc, e.f3, vmemF7(e.a, in.Masked), in.Rd, in.Rs1, rs2), nil
	case encFormVStore:
		rs2 := X(0)
		if e.b != 0 {
			rs2 = in.Rs3
		}
		return encR(e.opc, e.f3, vmemF7(e.a, in.Masked), in.Rs2, in.Rs1, rs2), nil
	case encFormXSh2:
		return encR(e.opc, e.f3, e.a|uint32(in.Imm)&3, in.Rd, in.Rs1, in.Rs2), nil
	case encFormXImm:
		return encI(e.opc, e.f3, in.Rd, in.Rs1, in.Imm&int64(e.a)), nil
	case encFormXR:
		return encR(e.opc, 0, e.a, in.Rd, in.Rs1, orX0(in.Rs2)), nil
	case encFormXCache:
		return encI(e.opc, e.f3, X(0), orX0(in.Rs1), int64(e.a)), nil
	}
	return 0, fmt.Errorf("isa: cannot encode %v", in.Op)
}

// ImmRange returns the inclusive bounds and the alignment (a power of two) of
// the values Inst.Imm may take without Encode truncating it; ok is false for
// an op whose encoding carries no immediate.
func ImmRange(op Op) (lo, hi, align int64, ok bool) {
	if op >= numOps {
		return 0, 0, 0, false
	}
	e := &encTab[op]
	switch e.form {
	case encFormI, encFormS:
		return -1 << 11, 1<<11 - 1, 1, true
	case encFormB:
		return -1 << 12, 1<<12 - 2, 2, true
	case encFormJ:
		return -1 << 20, 1<<20 - 2, 2, true
	case encFormU:
		// the 20-bit field may be written signed or unsigned
		return -1 << 31, 1<<32 - 1<<12, 1 << 12, true
	case encFormSh:
		return 0, 63, 1, true
	case encFormShW, encFormCSRI:
		return 0, 31, 1, true
	case encFormV:
		if e.f3 == 3 {
			return -16, 15, 1, true
		}
	case encFormVSetVLI:
		return 0, 0x7FF, 1, true
	case encFormXSh2:
		return 0, 3, 1, true
	case encFormXImm:
		return 0, int64(e.a), 1, true
	}
	return 0, 0, 0, false
}

// MustEncode is Encode for known-good instructions (panics on failure); it is
// used by code generators whose instruction set is fixed.
func MustEncode(in Inst) uint32 {
	v, err := Encode(in)
	if err != nil {
		panic(err)
	}
	return v
}
