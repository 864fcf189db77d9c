package isa

import "fmt"

// Op enumerates every operation the XT-910 model implements. The set covers
// RV64IMAFD, the Zicsr/Zifencei system instructions, a practical subset of the
// 0.7.1 vector draft, and the XT-910 custom extensions (prefixed X…).
type Op uint16

// Class groups operations by the execution resource they consume. The pipeline
// model dispatches on Class when binding micro-ops to issue queues and pipes.
type Class uint8

// Operation classes.
const (
	ClassIllegal Class = iota
	ClassALU           // single-cycle integer
	ClassMul           // integer multiply (shares a pipe with the ALUs)
	ClassDiv           // iterative integer divide (multi-cycle ALU pipe)
	ClassBranch        // conditional branch
	ClassJump          // jal/jalr (unconditional control flow)
	ClassLoad          // integer/FP load
	ClassStore         // integer/FP store
	ClassAMO           // atomics (lr/sc/amo*)
	ClassFPU           // scalar floating point
	ClassCSR           // CSR read/write
	ClassSys           // ecall/ebreak/mret/sret/wfi/fence
	ClassVSet          // vsetvl/vsetvli
	ClassVALU          // vector integer arithmetic
	ClassVFPU          // vector floating point
	ClassVLoad         // vector load
	ClassVStore        // vector store
	ClassCacheOp       // custom cache/TLB maintenance
)

// classNames renders each class in the short form used by reports and
// divergence signatures.
var classNames = [...]string{
	ClassIllegal: "illegal", ClassALU: "alu", ClassMul: "mul", ClassDiv: "div",
	ClassBranch: "branch", ClassJump: "jump", ClassLoad: "load", ClassStore: "store",
	ClassAMO: "amo", ClassFPU: "fpu", ClassCSR: "csr", ClassSys: "sys",
	ClassVSet: "vset", ClassVALU: "valu", ClassVFPU: "vfpu", ClassVLoad: "vload",
	ClassVStore: "vstore", ClassCacheOp: "cacheop",
}

// String returns the class's short report name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Operations. Each has one row in opMeta below; TestOpMetaComplete enforces
// the invariant.
const (
	ILLEGAL Op = iota

	// RV64I
	LUI
	AUIPC
	JAL
	JALR
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU
	LB
	LH
	LW
	LD
	LBU
	LHU
	LWU
	SB
	SH
	SW
	SD
	ADDI
	SLTI
	SLTIU
	XORI
	ORI
	ANDI
	SLLI
	SRLI
	SRAI
	ADD
	SUB
	SLL
	SLT
	SLTU
	XOR
	SRL
	SRA
	OR
	AND
	ADDIW
	SLLIW
	SRLIW
	SRAIW
	ADDW
	SUBW
	SLLW
	SRLW
	SRAW
	FENCE
	FENCEI
	ECALL
	EBREAK
	MRET
	SRET
	WFI
	SFENCEVMA

	// Zicsr
	CSRRW
	CSRRS
	CSRRC
	CSRRWI
	CSRRSI
	CSRRCI

	// RV64M
	MUL
	MULH
	MULHSU
	MULHU
	DIV
	DIVU
	REM
	REMU
	MULW
	DIVW
	DIVUW
	REMW
	REMUW

	// RV64A
	LRW
	LRD
	SCW
	SCD
	AMOSWAPW
	AMOSWAPD
	AMOADDW
	AMOADDD
	AMOANDW
	AMOANDD
	AMOORW
	AMOORD
	AMOXORW
	AMOXORD
	AMOMAXW
	AMOMAXD
	AMOMINW
	AMOMIND

	// RV64F/D (subset)
	FLW
	FLD
	FSW
	FSD
	FADDS
	FSUBS
	FMULS
	FDIVS
	FSQRTS
	FADDD
	FSUBD
	FMULD
	FDIVD
	FSQRTD
	FMADDS
	FMSUBS
	FMADDD
	FMSUBD
	FSGNJS
	FSGNJNS
	FSGNJXS
	FSGNJD
	FSGNJND
	FSGNJXD
	FMINS
	FMAXS
	FMIND
	FMAXD
	FCVTWS
	FCVTLS
	FCVTSW
	FCVTSL
	FCVTWD
	FCVTLD
	FCVTDW
	FCVTDL
	FCVTSD
	FCVTDS
	FMVXW
	FMVWX
	FMVXD
	FMVDX
	FEQS
	FLTS
	FLES
	FEQD
	FLTD
	FLED

	// Vector 0.7.1 subset. Element width and LMUL come from vtype; the loads
	// and stores are unit-stride with the element size taken from vtype (the
	// 0.7.1 vle.v/vse.v forms).
	VSETVLI
	VSETVL
	VLE
	VSE
	VLSE // strided load
	VSSE // strided store
	VADDVV
	VADDVX
	VADDVI
	VSUBVV
	VSUBVX
	VMULVV
	VMULVX
	VMACCVV
	VWMACCVV
	VANDVV
	VORVV
	VXORVV
	VSLLVV
	VSRLVV
	VMINVV
	VMAXVV
	VDIVVV
	VREMVV
	VMVVV
	VMVVX
	VMVSX
	VMVXS
	VREDSUMVS
	VREDMAXVS
	VFADDVV
	VFSUBVV
	VFMULVV
	VFDIVVV
	VFMACCVV
	VFREDSUMVS
	VLXEI   // indexed load: element i comes from rs1 + offsets[i]
	VSXEI   // indexed store: element i goes to rs1 + offsets[i]
	VMSEQVV // mask compare: bit i of vd = (vs2[i] == vs1[i])

	// XT-910 custom extensions: indexed memory access (register+register
	// addressing, optional zero-extended 32-bit index), per §VIII-A.
	XLRB // rd = sext(mem8 [rs1 + rs2<<imm2])
	XLRH
	XLRW
	XLRD
	XLURB // rd = mem (rs1 + zext32(rs2)<<imm2), zero-extended load
	XLURH
	XLURW
	XSRB // mem[rs1 + rs2<<imm2] = rd (rd read as store data)
	XSRH
	XSRW
	XSRD
	XADDSL // rd = rs1 + rs2<<imm2

	// XT-910 custom extensions: bit manipulation and MACs, per §VIII-B.
	XEXT    // rd = sext(rs1[msb:lsb])       imm = msb<<6 | lsb
	XEXTU   // rd = zext(rs1[msb:lsb])
	XFF0    // rd = index of first 0 bit from MSB (64 if none)
	XFF1    // rd = index of first 1 bit from MSB (64 if none)
	XREV    // rd = byte-reversed rs1
	XSRRI   // rd = rs1 rotated right by imm
	XTSTNBZ // rd = per-byte mask: 0xff where byte==0
	XMVEQZ  // rd = (rs2 == 0) ? rs1 : rd
	XMVNEZ  // rd = (rs2 != 0) ? rs1 : rd
	XMULA   // rd += rs1 * rs2
	XMULS   // rd -= rs1 * rs2
	XMULAH  // rd += sext16(rs1) * sext16(rs2)
	XMULSH  // rd -= sext16(rs1) * sext16(rs2)
	XMULAW  // rd = sext32(rd + rs1*rs2)
	XMULSW  // rd = sext32(rd - rs1*rs2)

	// XT-910 custom extensions: cache and TLB operations (§II, §V-E).
	XDCACHECALL // clean entire D-cache
	XDCACHEIALL // invalidate entire D-cache
	XDCACHECVA  // clean D-cache line by virtual address (rs1)
	XDCACHEIVA  // invalidate D-cache line by virtual address (rs1)
	XICACHEIALL // invalidate entire I-cache
	XSYNC       // full memory barrier
	XTLBIASID   // broadcast TLB invalidate for ASID in rs1
	XTLBIVA     // broadcast TLB invalidate for VA in rs1

	numOps
)

// NumOps is the number of defined operations (for table sizing in other
// packages).
const NumOps = int(numOps)

// Major opcodes (bits [6:0] of a 32-bit instruction).
const (
	opcLoad    = 0x03
	opcLoadFP  = 0x07
	opcCustom0 = 0x0B
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
)

// The fields a format can fix.
const (
	mOpc   = 0x0000007F
	mF3    = 0x00007000
	mF7    = 0xFE000000
	mF6    = 0xFC000000 // funct7 without bit 25: the shifts' funct6, and what is left beside a vector op's mask bit
	mF5    = 0xF8000000 // funct7 without bits [26:25]: aq/rl of an AMO, the 2-bit shift of the custom indexed forms
	mFmt   = 0x06000000 // the format field of the fused multiply-adds
	mRs2   = 0x01F00000
	mImm12 = 0xFFF00000
)

// format is one instruction layout: the bits every op of the layout fixes —
// Decode compares those, and only those, with the op's match, which is what
// leaves a rounding-mode field, aq/rl or the rd of an ecall free — and the
// operands in the order the source writes them.
type format struct {
	mask uint32
	opds []Operand
	// readsRd: Rd is read as well — the accumulator of a MAC, the value a
	// conditional move keeps, the data of a custom indexed store.
	readsRd bool
}

func layout(mask uint32, opds ...Operand) *format { return &format{mask, opds, false} }

func readingRd(f *format) *format { return &format{f.mask, f.opds, true} }

var (
	fU      = layout(mOpc, RdX, ImmU)
	fJ      = layout(mOpc, RdX, ImmJ)
	fJalr   = layout(mOpc, RdX, MemI)
	fB      = layout(mOpc|mF3, Rs1X, Rs2X, ImmB)
	fLoad   = layout(mOpc|mF3, RdX, MemI)
	fStore  = layout(mOpc|mF3, Rs2X, MemS)
	fI      = layout(mOpc|mF3, RdX, Rs1X, ImmI)
	fSh6    = layout(mOpc|mF3|mF6, RdX, Rs1X, Shamt6)
	fSh5    = layout(mOpc|mF3|mF7, RdX, Rs1X, Shamt5)
	fR      = layout(mOpc|mF3|mF7, RdX, Rs1X, Rs2X)
	fRAcc   = readingRd(fR)
	fR2     = layout(mOpc|mF3|mF7, RdX, Rs1X)
	fFence  = layout(mOpc | mF3)
	fSys    = layout(mOpc | mF3 | mImm12)
	fSys1   = layout(mOpc|mF3|mImm12, Rs1Opt)
	fSFence = layout(mOpc|mF3|mF7, Rs1Opt, Rs2Opt)
	fCSR    = layout(mOpc|mF3, RdX, CSRNum, Rs1X)
	fCSRI   = layout(mOpc|mF3, RdX, CSRNum, Uimm5)
	fAMO    = layout(mOpc|mF3|mF5, RdX, Rs2X, Base)
	fLR     = layout(mOpc|mF3|mF5, RdX, Base)

	// Floating point. OP-FP fixes funct3 only where it selects the operation
	// (elsewhere it is the rounding mode) and the rs2 field only where the
	// op has one source.
	fFLoad  = layout(mOpc|mF3, RdF, MemI)
	fFStore = layout(mOpc|mF3, Rs2F, MemS)
	fFR     = layout(mOpc|mF7, RdF, Rs1F, Rs2F)
	fFR3    = layout(mOpc|mF3|mF7, RdF, Rs1F, Rs2F)
	fFCmp   = layout(mOpc|mF3|mF7, RdX, Rs1F, Rs2F)
	fFF     = layout(mOpc|mF7|mRs2, RdF, Rs1F)
	fFXF    = layout(mOpc|mF7|mRs2, RdX, Rs1F)
	fFFX    = layout(mOpc|mF7|mRs2, RdF, Rs1X)
	fFMvXF  = layout(mOpc|mF3|mF7|mRs2, RdX, Rs1F)
	fFMvFX  = layout(mOpc|mF3|mF7|mRs2, RdF, Rs1X)
	fR4     = layout(mOpc|mFmt, RdF, Rs1F, Rs2F, Rs3F)

	// Vector: the source order is vd, vs2, then vs1/rs1/imm; a store's data
	// vector sits in the rd slot as a load's destination does.
	fVSetVLI = layout(mOpc|mF3|1<<31, RdX, Rs1X, VTypeImm)
	fVLoad   = layout(mOpc|mF3|mF6, RdV, Base, VMemMask)
	fVLoadS  = layout(mOpc|mF3|mF6, RdV, Base, Rs2X, VMemMask)
	fVLoadX  = layout(mOpc|mF3|mF6, RdV, Base, Rs2V, VMemMask)
	fVStore  = layout(mOpc|mF3|mF6, VData, Base, VMemMask)
	fVStoreS = layout(mOpc|mF3|mF6, VData, Base, VStride, VMemMask)
	fVStoreX = layout(mOpc|mF3|mF6, VData, Base, VIndex, VMemMask)
	fVV      = layout(mOpc|mF3|mF6, RdV, Rs2V, Rs1V, VM)
	fVVAcc   = readingRd(fVV)
	fVX      = layout(mOpc|mF3|mF6, RdV, Rs2V, Rs1X, VM)
	fVI      = layout(mOpc|mF3|mF6, RdV, Rs2V, Simm5, VM)
	fVMvV    = layout(mOpc|mF3|mF6, RdV, Rs1V, VM)
	fVMvX    = layout(mOpc|mF3|mF6, RdV, Rs1X, VM)
	fVMvXS   = layout(mOpc|mF3|mF6, RdX, Rs2V, VM)

	// XT-910 custom: the indexed store carries its data in rd.
	fXIdx   = layout(mOpc|mF3|mF5, RdX, Rs1X, Rs2X, Shift2)
	fXIdxSt = readingRd(fXIdx)
	fXExt   = layout(mOpc|mF3, RdX, Rs1X, MsbLsb)
)

// opF3, opF7, opImm and opV compose a row's match from the fields it fixes.
// opV's funct3 is the vector operand category (0 OPIVV, 1 OPFVV, 2 OPMVV,
// 3 OPIVI, 4 OPIVX, 6 OPMVX); the funct6 values mostly follow the 0.7.1 draft.
func opF3(opc, f3 uint32) uint32         { return opc | f3<<12 }
func opF7(opc, f3, f7 uint32) uint32     { return opc | f3<<12 | f7<<25 }
func opImm(opc, f3, imm12 uint32) uint32 { return opc | f3<<12 | imm12<<20 }
func opV(f3, f6 uint32) uint32           { return opcOpV | f3<<12 | f6<<26 }

// opMetaInfo is the one statement of an operation: everything Encode, Decode,
// the disassembler and the assembler know about it follows from its row.
type opMetaInfo struct {
	name  string
	class Class
	// latency is the default execution latency in cycles used by the pipeline
	// model (loads/stores add memory time on top of their pipe latency).
	latency uint8
	form    *format
	// match is the word with every field the format fixes set to this op's
	// value. fence alone also sets bits outside its mask (Encode writes
	// iorw, iorw; Decode takes any).
	match uint32
}

var opMeta = [numOps]opMetaInfo{
	ILLEGAL: {"illegal", ClassIllegal, 1, nil, 0},

	LUI:   {"lui", ClassALU, 1, fU, opcLui},
	AUIPC: {"auipc", ClassALU, 1, fU, opcAuipc},
	JAL:   {"jal", ClassJump, 1, fJ, opcJAL},
	JALR:  {"jalr", ClassJump, 1, fJalr, opcJALR},
	BEQ:   {"beq", ClassBranch, 1, fB, opF3(opcBranch, 0)},
	BNE:   {"bne", ClassBranch, 1, fB, opF3(opcBranch, 1)},
	BLT:   {"blt", ClassBranch, 1, fB, opF3(opcBranch, 4)},
	BGE:   {"bge", ClassBranch, 1, fB, opF3(opcBranch, 5)},
	BLTU:  {"bltu", ClassBranch, 1, fB, opF3(opcBranch, 6)},
	BGEU:  {"bgeu", ClassBranch, 1, fB, opF3(opcBranch, 7)},
	LB:    {"lb", ClassLoad, 1, fLoad, opF3(opcLoad, 0)},
	LH:    {"lh", ClassLoad, 1, fLoad, opF3(opcLoad, 1)},
	LW:    {"lw", ClassLoad, 1, fLoad, opF3(opcLoad, 2)},
	LD:    {"ld", ClassLoad, 1, fLoad, opF3(opcLoad, 3)},
	LBU:   {"lbu", ClassLoad, 1, fLoad, opF3(opcLoad, 4)},
	LHU:   {"lhu", ClassLoad, 1, fLoad, opF3(opcLoad, 5)},
	LWU:   {"lwu", ClassLoad, 1, fLoad, opF3(opcLoad, 6)},
	SB:    {"sb", ClassStore, 1, fStore, opF3(opcStore, 0)},
	SH:    {"sh", ClassStore, 1, fStore, opF3(opcStore, 1)},
	SW:    {"sw", ClassStore, 1, fStore, opF3(opcStore, 2)},
	SD:    {"sd", ClassStore, 1, fStore, opF3(opcStore, 3)},
	ADDI:  {"addi", ClassALU, 1, fI, opF3(opcOpImm, 0)},
	SLTI:  {"slti", ClassALU, 1, fI, opF3(opcOpImm, 2)},
	SLTIU: {"sltiu", ClassALU, 1, fI, opF3(opcOpImm, 3)},
	XORI:  {"xori", ClassALU, 1, fI, opF3(opcOpImm, 4)},
	ORI:   {"ori", ClassALU, 1, fI, opF3(opcOpImm, 6)},
	ANDI:  {"andi", ClassALU, 1, fI, opF3(opcOpImm, 7)},
	SLLI:  {"slli", ClassALU, 1, fSh6, opF7(opcOpImm, 1, 0)},
	SRLI:  {"srli", ClassALU, 1, fSh6, opF7(opcOpImm, 5, 0)},
	SRAI:  {"srai", ClassALU, 1, fSh6, opF7(opcOpImm, 5, 0x10<<1)},
	ADD:   {"add", ClassALU, 1, fR, opF7(opcOp, 0, 0x00)},
	SUB:   {"sub", ClassALU, 1, fR, opF7(opcOp, 0, 0x20)},
	SLL:   {"sll", ClassALU, 1, fR, opF7(opcOp, 1, 0x00)},
	SLT:   {"slt", ClassALU, 1, fR, opF7(opcOp, 2, 0x00)},
	SLTU:  {"sltu", ClassALU, 1, fR, opF7(opcOp, 3, 0x00)},
	XOR:   {"xor", ClassALU, 1, fR, opF7(opcOp, 4, 0x00)},
	SRL:   {"srl", ClassALU, 1, fR, opF7(opcOp, 5, 0x00)},
	SRA:   {"sra", ClassALU, 1, fR, opF7(opcOp, 5, 0x20)},
	OR:    {"or", ClassALU, 1, fR, opF7(opcOp, 6, 0x00)},
	AND:   {"and", ClassALU, 1, fR, opF7(opcOp, 7, 0x00)},
	ADDIW: {"addiw", ClassALU, 1, fI, opF3(opcOpImm32, 0)},
	SLLIW: {"slliw", ClassALU, 1, fSh5, opF7(opcOpImm32, 1, 0x00)},
	SRLIW: {"srliw", ClassALU, 1, fSh5, opF7(opcOpImm32, 5, 0x00)},
	SRAIW: {"sraiw", ClassALU, 1, fSh5, opF7(opcOpImm32, 5, 0x20)},
	ADDW:  {"addw", ClassALU, 1, fR, opF7(opcOp32, 0, 0x00)},
	SUBW:  {"subw", ClassALU, 1, fR, opF7(opcOp32, 0, 0x20)},
	SLLW:  {"sllw", ClassALU, 1, fR, opF7(opcOp32, 1, 0x00)},
	SRLW:  {"srlw", ClassALU, 1, fR, opF7(opcOp32, 5, 0x00)},
	SRAW:  {"sraw", ClassALU, 1, fR, opF7(opcOp32, 5, 0x20)},

	FENCE:     {"fence", ClassSys, 1, fFence, opImm(opcMiscMem, 0, 0x0FF)},
	FENCEI:    {"fence.i", ClassSys, 1, fFence, opImm(opcMiscMem, 1, 0x000)},
	ECALL:     {"ecall", ClassSys, 1, fSys, opImm(opcSystem, 0, 0x000)},
	EBREAK:    {"ebreak", ClassSys, 1, fSys, opImm(opcSystem, 0, 0x001)},
	MRET:      {"mret", ClassSys, 1, fSys, opImm(opcSystem, 0, 0x302)},
	SRET:      {"sret", ClassSys, 1, fSys, opImm(opcSystem, 0, 0x102)},
	WFI:       {"wfi", ClassSys, 1, fSys, opImm(opcSystem, 0, 0x105)},
	SFENCEVMA: {"sfence.vma", ClassSys, 1, fSFence, opF7(opcSystem, 0, 0x09)},

	CSRRW:  {"csrrw", ClassCSR, 1, fCSR, opF3(opcSystem, 1)},
	CSRRS:  {"csrrs", ClassCSR, 1, fCSR, opF3(opcSystem, 2)},
	CSRRC:  {"csrrc", ClassCSR, 1, fCSR, opF3(opcSystem, 3)},
	CSRRWI: {"csrrwi", ClassCSR, 1, fCSRI, opF3(opcSystem, 5)},
	CSRRSI: {"csrrsi", ClassCSR, 1, fCSRI, opF3(opcSystem, 6)},
	CSRRCI: {"csrrci", ClassCSR, 1, fCSRI, opF3(opcSystem, 7)},

	MUL:    {"mul", ClassMul, 3, fR, opF7(opcOp, 0, 0x01)},
	MULH:   {"mulh", ClassMul, 3, fR, opF7(opcOp, 1, 0x01)},
	MULHSU: {"mulhsu", ClassMul, 3, fR, opF7(opcOp, 2, 0x01)},
	MULHU:  {"mulhu", ClassMul, 3, fR, opF7(opcOp, 3, 0x01)},
	DIV:    {"div", ClassDiv, 12, fR, opF7(opcOp, 4, 0x01)},
	DIVU:   {"divu", ClassDiv, 12, fR, opF7(opcOp, 5, 0x01)},
	REM:    {"rem", ClassDiv, 12, fR, opF7(opcOp, 6, 0x01)},
	REMU:   {"remu", ClassDiv, 12, fR, opF7(opcOp, 7, 0x01)},
	MULW:   {"mulw", ClassMul, 3, fR, opF7(opcOp32, 0, 0x01)},
	DIVW:   {"divw", ClassDiv, 8, fR, opF7(opcOp32, 4, 0x01)},
	DIVUW:  {"divuw", ClassDiv, 8, fR, opF7(opcOp32, 5, 0x01)},
	REMW:   {"remw", ClassDiv, 8, fR, opF7(opcOp32, 6, 0x01)},
	REMUW:  {"remuw", ClassDiv, 8, fR, opF7(opcOp32, 7, 0x01)},

	LRW:      {"lr.w", ClassAMO, 1, fLR, opF7(opcAMO, 2, 0x02<<2)},
	LRD:      {"lr.d", ClassAMO, 1, fLR, opF7(opcAMO, 3, 0x02<<2)},
	SCW:      {"sc.w", ClassAMO, 1, fAMO, opF7(opcAMO, 2, 0x03<<2)},
	SCD:      {"sc.d", ClassAMO, 1, fAMO, opF7(opcAMO, 3, 0x03<<2)},
	AMOSWAPW: {"amoswap.w", ClassAMO, 1, fAMO, opF7(opcAMO, 2, 0x01<<2)},
	AMOSWAPD: {"amoswap.d", ClassAMO, 1, fAMO, opF7(opcAMO, 3, 0x01<<2)},
	AMOADDW:  {"amoadd.w", ClassAMO, 1, fAMO, opF7(opcAMO, 2, 0x00<<2)},
	AMOADDD:  {"amoadd.d", ClassAMO, 1, fAMO, opF7(opcAMO, 3, 0x00<<2)},
	AMOANDW:  {"amoand.w", ClassAMO, 1, fAMO, opF7(opcAMO, 2, 0x0C<<2)},
	AMOANDD:  {"amoand.d", ClassAMO, 1, fAMO, opF7(opcAMO, 3, 0x0C<<2)},
	AMOORW:   {"amoor.w", ClassAMO, 1, fAMO, opF7(opcAMO, 2, 0x08<<2)},
	AMOORD:   {"amoor.d", ClassAMO, 1, fAMO, opF7(opcAMO, 3, 0x08<<2)},
	AMOXORW:  {"amoxor.w", ClassAMO, 1, fAMO, opF7(opcAMO, 2, 0x04<<2)},
	AMOXORD:  {"amoxor.d", ClassAMO, 1, fAMO, opF7(opcAMO, 3, 0x04<<2)},
	AMOMAXW:  {"amomax.w", ClassAMO, 1, fAMO, opF7(opcAMO, 2, 0x14<<2)},
	AMOMAXD:  {"amomax.d", ClassAMO, 1, fAMO, opF7(opcAMO, 3, 0x14<<2)},
	AMOMINW:  {"amomin.w", ClassAMO, 1, fAMO, opF7(opcAMO, 2, 0x10<<2)},
	AMOMIND:  {"amomin.d", ClassAMO, 1, fAMO, opF7(opcAMO, 3, 0x10<<2)},

	FLW:     {"flw", ClassLoad, 1, fFLoad, opF3(opcLoadFP, 2)},
	FLD:     {"fld", ClassLoad, 1, fFLoad, opF3(opcLoadFP, 3)},
	FSW:     {"fsw", ClassStore, 1, fFStore, opF3(opcStoreFP, 2)},
	FSD:     {"fsd", ClassStore, 1, fFStore, opF3(opcStoreFP, 3)},
	FADDS:   {"fadd.s", ClassFPU, 3, fFR, opF7(opcOpFP, 0, 0x00)},
	FSUBS:   {"fsub.s", ClassFPU, 3, fFR, opF7(opcOpFP, 0, 0x04)},
	FMULS:   {"fmul.s", ClassFPU, 5, fFR, opF7(opcOpFP, 0, 0x08)},
	FDIVS:   {"fdiv.s", ClassFPU, 12, fFR, opF7(opcOpFP, 0, 0x0C)},
	FSQRTS:  {"fsqrt.s", ClassFPU, 14, fFF, opF7(opcOpFP, 0, 0x2C)},
	FADDD:   {"fadd.d", ClassFPU, 3, fFR, opF7(opcOpFP, 0, 0x01)},
	FSUBD:   {"fsub.d", ClassFPU, 3, fFR, opF7(opcOpFP, 0, 0x05)},
	FMULD:   {"fmul.d", ClassFPU, 5, fFR, opF7(opcOpFP, 0, 0x09)},
	FDIVD:   {"fdiv.d", ClassFPU, 18, fFR, opF7(opcOpFP, 0, 0x0D)},
	FSQRTD:  {"fsqrt.d", ClassFPU, 20, fFF, opF7(opcOpFP, 0, 0x2D)},
	FMADDS:  {"fmadd.s", ClassFPU, 5, fR4, opF7(opcFMAdd, 0, 0)},
	FMSUBS:  {"fmsub.s", ClassFPU, 5, fR4, opF7(opcFMSub, 0, 0)},
	FMADDD:  {"fmadd.d", ClassFPU, 5, fR4, opF7(opcFMAdd, 0, 1)},
	FMSUBD:  {"fmsub.d", ClassFPU, 5, fR4, opF7(opcFMSub, 0, 1)},
	FSGNJS:  {"fsgnj.s", ClassFPU, 1, fFR3, opF7(opcOpFP, 0, 0x10)},
	FSGNJNS: {"fsgnjn.s", ClassFPU, 1, fFR3, opF7(opcOpFP, 1, 0x10)},
	FSGNJXS: {"fsgnjx.s", ClassFPU, 1, fFR3, opF7(opcOpFP, 2, 0x10)},
	FSGNJD:  {"fsgnj.d", ClassFPU, 1, fFR3, opF7(opcOpFP, 0, 0x11)},
	FSGNJND: {"fsgnjn.d", ClassFPU, 1, fFR3, opF7(opcOpFP, 1, 0x11)},
	FSGNJXD: {"fsgnjx.d", ClassFPU, 1, fFR3, opF7(opcOpFP, 2, 0x11)},
	FMINS:   {"fmin.s", ClassFPU, 2, fFR3, opF7(opcOpFP, 0, 0x14)},
	FMAXS:   {"fmax.s", ClassFPU, 2, fFR3, opF7(opcOpFP, 1, 0x14)},
	FMIND:   {"fmin.d", ClassFPU, 2, fFR3, opF7(opcOpFP, 0, 0x15)},
	FMAXD:   {"fmax.d", ClassFPU, 2, fFR3, opF7(opcOpFP, 1, 0x15)},
	FCVTWS:  {"fcvt.w.s", ClassFPU, 3, fFXF, opF7(opcOpFP, 0, 0x60)},
	FCVTLS:  {"fcvt.l.s", ClassFPU, 3, fFXF, opF7(opcOpFP, 0, 0x60) | 2<<20},
	FCVTSW:  {"fcvt.s.w", ClassFPU, 3, fFFX, opF7(opcOpFP, 0, 0x68)},
	FCVTSL:  {"fcvt.s.l", ClassFPU, 3, fFFX, opF7(opcOpFP, 0, 0x68) | 2<<20},
	FCVTWD:  {"fcvt.w.d", ClassFPU, 3, fFXF, opF7(opcOpFP, 0, 0x61)},
	FCVTLD:  {"fcvt.l.d", ClassFPU, 3, fFXF, opF7(opcOpFP, 0, 0x61) | 2<<20},
	FCVTDW:  {"fcvt.d.w", ClassFPU, 3, fFFX, opF7(opcOpFP, 0, 0x69)},
	FCVTDL:  {"fcvt.d.l", ClassFPU, 3, fFFX, opF7(opcOpFP, 0, 0x69) | 2<<20},
	FCVTSD:  {"fcvt.s.d", ClassFPU, 3, fFF, opF7(opcOpFP, 0, 0x20) | 1<<20},
	FCVTDS:  {"fcvt.d.s", ClassFPU, 3, fFF, opF7(opcOpFP, 0, 0x21)},
	FMVXW:   {"fmv.x.w", ClassFPU, 1, fFMvXF, opF7(opcOpFP, 0, 0x70)},
	FMVWX:   {"fmv.w.x", ClassFPU, 1, fFMvFX, opF7(opcOpFP, 0, 0x78)},
	FMVXD:   {"fmv.x.d", ClassFPU, 1, fFMvXF, opF7(opcOpFP, 0, 0x71)},
	FMVDX:   {"fmv.d.x", ClassFPU, 1, fFMvFX, opF7(opcOpFP, 0, 0x79)},
	FEQS:    {"feq.s", ClassFPU, 2, fFCmp, opF7(opcOpFP, 2, 0x50)},
	FLTS:    {"flt.s", ClassFPU, 2, fFCmp, opF7(opcOpFP, 1, 0x50)},
	FLES:    {"fle.s", ClassFPU, 2, fFCmp, opF7(opcOpFP, 0, 0x50)},
	FEQD:    {"feq.d", ClassFPU, 2, fFCmp, opF7(opcOpFP, 2, 0x51)},
	FLTD:    {"flt.d", ClassFPU, 2, fFCmp, opF7(opcOpFP, 1, 0x51)},
	FLED:    {"fle.d", ClassFPU, 2, fFCmp, opF7(opcOpFP, 0, 0x51)},

	VSETVLI:    {"vsetvli", ClassVSet, 1, fVSetVLI, opF3(opcOpV, 7)},
	VSETVL:     {"vsetvl", ClassVSet, 1, fR, opF7(opcOpV, 7, 0x40)},
	VLE:        {"vle.v", ClassVLoad, 1, fVLoad, opF7(opcLoadFP, 7, 0x00)},
	VSE:        {"vse.v", ClassVStore, 1, fVStore, opF7(opcStoreFP, 7, 0x00)},
	VLSE:       {"vlse.v", ClassVLoad, 1, fVLoadS, opF7(opcLoadFP, 7, 0x08)},
	VSSE:       {"vsse.v", ClassVStore, 1, fVStoreS, opF7(opcStoreFP, 7, 0x08)},
	VADDVV:     {"vadd.vv", ClassVALU, 3, fVV, opV(0, 0x00)},
	VADDVX:     {"vadd.vx", ClassVALU, 3, fVX, opV(4, 0x00)},
	VADDVI:     {"vadd.vi", ClassVALU, 3, fVI, opV(3, 0x00)},
	VSUBVV:     {"vsub.vv", ClassVALU, 3, fVV, opV(0, 0x02)},
	VSUBVX:     {"vsub.vx", ClassVALU, 3, fVX, opV(4, 0x02)},
	VMULVV:     {"vmul.vv", ClassVALU, 4, fVV, opV(2, 0x25)},
	VMULVX:     {"vmul.vx", ClassVALU, 4, fVX, opV(6, 0x25)},
	VMACCVV:    {"vmacc.vv", ClassVALU, 4, fVVAcc, opV(2, 0x2D)},
	VWMACCVV:   {"vwmacc.vv", ClassVALU, 4, fVVAcc, opV(2, 0x3D)},
	VANDVV:     {"vand.vv", ClassVALU, 3, fVV, opV(0, 0x09)},
	VORVV:      {"vor.vv", ClassVALU, 3, fVV, opV(0, 0x0A)},
	VXORVV:     {"vxor.vv", ClassVALU, 3, fVV, opV(0, 0x0B)},
	VSLLVV:     {"vsll.vv", ClassVALU, 3, fVV, opV(0, 0x25)},
	VSRLVV:     {"vsrl.vv", ClassVALU, 3, fVV, opV(0, 0x28)},
	VMINVV:     {"vmin.vv", ClassVALU, 3, fVV, opV(0, 0x05)},
	VMAXVV:     {"vmax.vv", ClassVALU, 3, fVV, opV(0, 0x07)},
	VDIVVV:     {"vdiv.vv", ClassVALU, 16, fVV, opV(2, 0x21)},
	VREMVV:     {"vrem.vv", ClassVALU, 16, fVV, opV(2, 0x23)},
	VMVVV:      {"vmv.v.v", ClassVALU, 1, fVMvV, opV(0, 0x17)},
	VMVVX:      {"vmv.v.x", ClassVALU, 1, fVMvX, opV(4, 0x17)},
	VMVSX:      {"vmv.s.x", ClassVALU, 1, fVMvX, opV(6, 0x10)},
	VMVXS:      {"vmv.x.s", ClassVALU, 1, fVMvXS, opV(2, 0x10)},
	VREDSUMVS:  {"vredsum.vs", ClassVALU, 4, fVV, opV(2, 0x00)},
	VREDMAXVS:  {"vredmax.vs", ClassVALU, 4, fVV, opV(2, 0x07)},
	VFADDVV:    {"vfadd.vv", ClassVFPU, 3, fVV, opV(1, 0x00)},
	VFSUBVV:    {"vfsub.vv", ClassVFPU, 3, fVV, opV(1, 0x02)},
	VFMULVV:    {"vfmul.vv", ClassVFPU, 5, fVV, opV(1, 0x24)},
	VFDIVVV:    {"vfdiv.vv", ClassVFPU, 16, fVV, opV(1, 0x20)},
	VFMACCVV:   {"vfmacc.vv", ClassVFPU, 5, fVVAcc, opV(1, 0x2C)},
	VFREDSUMVS: {"vfredsum.vs", ClassVFPU, 4, fVV, opV(1, 0x01)},
	VLXEI:      {"vlxei.v", ClassVLoad, 1, fVLoadX, opF7(opcLoadFP, 7, 0x0C)},
	VSXEI:      {"vsxei.v", ClassVStore, 1, fVStoreX, opF7(opcStoreFP, 7, 0x0C)},
	VMSEQVV:    {"vmseq.vv", ClassVALU, 3, fVV, opV(0, 0x18)},

	XLRB:   {"lrb", ClassLoad, 1, fXIdx, opF7(opcCustom0, 1, 0<<2)},
	XLRH:   {"lrh", ClassLoad, 1, fXIdx, opF7(opcCustom0, 1, 1<<2)},
	XLRW:   {"lrw", ClassLoad, 1, fXIdx, opF7(opcCustom0, 1, 2<<2)},
	XLRD:   {"lrd", ClassLoad, 1, fXIdx, opF7(opcCustom0, 1, 3<<2)},
	XLURB:  {"lurb", ClassLoad, 1, fXIdx, opF7(opcCustom0, 1, 4<<2)},
	XLURH:  {"lurh", ClassLoad, 1, fXIdx, opF7(opcCustom0, 1, 5<<2)},
	XLURW:  {"lurw", ClassLoad, 1, fXIdx, opF7(opcCustom0, 1, 6<<2)},
	XSRB:   {"srb", ClassStore, 1, fXIdxSt, opF7(opcCustom0, 2, 0<<2)},
	XSRH:   {"srh", ClassStore, 1, fXIdxSt, opF7(opcCustom0, 2, 1<<2)},
	XSRW:   {"srw", ClassStore, 1, fXIdxSt, opF7(opcCustom0, 2, 2<<2)},
	XSRD:   {"srd", ClassStore, 1, fXIdxSt, opF7(opcCustom0, 2, 3<<2)},
	XADDSL: {"addsl", ClassALU, 1, fXIdx, opF7(opcCustom0, 3, 0<<2)},

	XEXT:    {"ext", ClassALU, 1, fXExt, opF3(opcCustom0, 4)},
	XEXTU:   {"extu", ClassALU, 1, fXExt, opF3(opcCustom0, 5)},
	XFF0:    {"ff0", ClassALU, 1, fR2, opF7(opcCustom0, 0, 0x03)},
	XFF1:    {"ff1", ClassALU, 1, fR2, opF7(opcCustom0, 0, 0x04)},
	XREV:    {"rev", ClassALU, 1, fR2, opF7(opcCustom0, 0, 0x02)},
	XSRRI:   {"srri", ClassALU, 1, fSh6, opF7(opcCustom0, 6, 0)},
	XTSTNBZ: {"tstnbz", ClassALU, 1, fR2, opF7(opcCustom0, 0, 0x05)},
	XMVEQZ:  {"mveqz", ClassALU, 1, fRAcc, opF7(opcCustom0, 0, 0x10)},
	XMVNEZ:  {"mvnez", ClassALU, 1, fRAcc, opF7(opcCustom0, 0, 0x11)},
	XMULA:   {"mula", ClassMul, 3, fRAcc, opF7(opcCustom0, 0, 0x20)},
	XMULS:   {"muls", ClassMul, 3, fRAcc, opF7(opcCustom0, 0, 0x21)},
	XMULAH:  {"mulah", ClassMul, 3, fRAcc, opF7(opcCustom0, 0, 0x22)},
	XMULSH:  {"mulsh", ClassMul, 3, fRAcc, opF7(opcCustom0, 0, 0x23)},
	XMULAW:  {"mulaw", ClassMul, 3, fRAcc, opF7(opcCustom0, 0, 0x24)},
	XMULSW:  {"mulsw", ClassMul, 3, fRAcc, opF7(opcCustom0, 0, 0x25)},

	XDCACHECALL: {"dcache.call", ClassCacheOp, 1, fSys, opImm(opcCustom0, 7, 0)},
	XDCACHEIALL: {"dcache.iall", ClassCacheOp, 1, fSys, opImm(opcCustom0, 7, 1)},
	XDCACHECVA:  {"dcache.cva", ClassCacheOp, 1, fSys1, opImm(opcCustom0, 7, 2)},
	XDCACHEIVA:  {"dcache.iva", ClassCacheOp, 1, fSys1, opImm(opcCustom0, 7, 3)},
	XICACHEIALL: {"icache.iall", ClassCacheOp, 1, fSys, opImm(opcCustom0, 7, 4)},
	XSYNC:       {"sync", ClassCacheOp, 1, fSys, opImm(opcCustom0, 7, 5)},
	XTLBIASID:   {"tlbi.asid", ClassCacheOp, 1, fSys1, opImm(opcCustom0, 7, 6)},
	XTLBIVA:     {"tlbi.va", ClassCacheOp, 1, fSys1, opImm(opcCustom0, 7, 7)},
}

// String returns the assembler mnemonic for the operation.
func (o Op) String() string {
	if int(o) < len(opMeta) && opMeta[o].name != "" {
		return opMeta[o].name
	}
	return "op?"
}

// Class returns the execution class of the operation.
func (o Op) Class() Class {
	if int(o) < len(opMeta) {
		return opMeta[o].class
	}
	return ClassIllegal
}

// Latency returns the default execution latency in cycles. Memory operations
// add cache/DRAM time on top of this pipe latency; divides return the default
// and the core adjusts by operand magnitude.
func (o Op) Latency() int { return int(opMeta[o].latency) }

// format returns the operation's format, nil for an op that has no encoding.
func (o Op) format() *format {
	if o < numOps {
		return opMeta[o].form
	}
	return nil
}

// Operands returns the operation's operands in the order the source writes
// them (shared: do not modify).
func (o Op) Operands() []Operand {
	if f := o.format(); f != nil {
		return f.opds
	}
	return nil
}

// MemBytes returns the access width in bytes for scalar loads/stores/AMOs,
// or 0 for non-memory operations.
func (o Op) MemBytes() int {
	switch o {
	case LB, LBU, SB, XLRB, XLURB, XSRB:
		return 1
	case LH, LHU, SH, XLRH, XLURH, XSRH:
		return 2
	case LW, LWU, SW, FLW, FSW, XLRW, XLURW, XSRW,
		LRW, SCW, AMOSWAPW, AMOADDW, AMOANDW, AMOORW, AMOXORW, AMOMAXW, AMOMINW:
		return 4
	case LD, SD, FLD, FSD, XLRD, XSRD,
		LRD, SCD, AMOSWAPD, AMOADDD, AMOANDD, AMOORD, AMOXORD, AMOMAXD, AMOMIND:
		return 8
	}
	return 0
}

// LoadUnsigned reports whether a load zero-extends its result.
func (o Op) LoadUnsigned() bool {
	switch o {
	case LBU, LHU, LWU, XLURB, XLURH, XLURW:
		return true
	}
	return false
}

// opsByName resolves mnemonics for the assembler.
var opsByName = map[string]Op{}

func init() {
	for op := Op(1); op < numOps; op++ {
		if opMeta[op].name != "" {
			opsByName[opMeta[op].name] = op
		}
	}
}

// ParseOp resolves an assembler mnemonic to an Op.
func ParseOp(name string) (Op, bool) {
	op, ok := opsByName[name]
	return op, ok
}
