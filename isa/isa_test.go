package isa

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randInst builds a random valid instruction for op, suitable for an
// encode/decode round trip.
func randInst(rng *rand.Rand, op Op) (Inst, bool) {
	in := NewInst(op)
	rx := func() Reg { return X(rng.Intn(32)) }
	rf := func() Reg { return F(rng.Intn(32)) }
	rv := func() Reg { return V(rng.Intn(32)) }
	imm12 := func() int64 { return int64(rng.Intn(4096) - 2048) }
	switch op {
	case LUI, AUIPC:
		in.Rd = rx()
		in.Imm = int64(int32(rng.Uint32())) &^ 0xFFF
	case JAL:
		in.Rd = rx()
		in.Imm = int64(rng.Intn(1<<20)-1<<19) &^ 1
	case JALR:
		in.Rd, in.Rs1, in.Imm = rx(), rx(), imm12()
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		in.Rs1, in.Rs2 = rx(), rx()
		in.Imm = int64(rng.Intn(1<<12)-1<<11) &^ 1
	case LB, LH, LW, LD, LBU, LHU, LWU:
		in.Rd, in.Rs1, in.Imm = rx(), rx(), imm12()
	case SB, SH, SW, SD:
		in.Rs1, in.Rs2, in.Imm = rx(), rx(), imm12()
	case ADDI, SLTI, SLTIU, XORI, ORI, ANDI, ADDIW:
		in.Rd, in.Rs1, in.Imm = rx(), rx(), imm12()
	case SLLI, SRLI, SRAI, XSRRI:
		in.Rd, in.Rs1, in.Imm = rx(), rx(), int64(rng.Intn(64))
	case SLLIW, SRLIW, SRAIW:
		in.Rd, in.Rs1, in.Imm = rx(), rx(), int64(rng.Intn(32))
	case ADD, SUB, SLL, SLT, SLTU, XOR, SRL, SRA, OR, AND,
		ADDW, SUBW, SLLW, SRLW, SRAW,
		MUL, MULH, MULHSU, MULHU, DIV, DIVU, REM, REMU,
		MULW, DIVW, DIVUW, REMW, REMUW:
		in.Rd, in.Rs1, in.Rs2 = rx(), rx(), rx()
	case CSRRW, CSRRS, CSRRC:
		in.Rd, in.Rs1, in.CSR = rx(), rx(), uint16(rng.Intn(4096))
	case CSRRWI, CSRRSI, CSRRCI:
		in.Rd, in.CSR, in.Imm = rx(), uint16(rng.Intn(4096)), int64(rng.Intn(32))
	case LRW, LRD:
		in.Rd, in.Rs1 = rx(), rx()
	case SCW, SCD, AMOSWAPW, AMOSWAPD, AMOADDW, AMOADDD, AMOANDW, AMOANDD,
		AMOORW, AMOORD, AMOXORW, AMOXORD, AMOMAXW, AMOMAXD, AMOMINW, AMOMIND:
		in.Rd, in.Rs1, in.Rs2 = rx(), rx(), rx()
	case FLW, FLD:
		in.Rd, in.Rs1, in.Imm = rf(), rx(), imm12()
	case FSW, FSD:
		in.Rs1, in.Rs2, in.Imm = rx(), rf(), imm12()
	case FADDS, FSUBS, FMULS, FDIVS, FADDD, FSUBD, FMULD, FDIVD,
		FSGNJS, FSGNJNS, FSGNJXS, FSGNJD, FSGNJND, FSGNJXD,
		FMINS, FMAXS, FMIND, FMAXD:
		in.Rd, in.Rs1, in.Rs2 = rf(), rf(), rf()
	case FSQRTS, FSQRTD, FCVTSD, FCVTDS:
		in.Rd, in.Rs1 = rf(), rf()
	case FMADDS, FMSUBS, FMADDD, FMSUBD:
		in.Rd, in.Rs1, in.Rs2, in.Rs3 = rf(), rf(), rf(), rf()
	case FCVTWS, FCVTLS, FCVTWD, FCVTLD, FMVXW, FMVXD:
		in.Rd, in.Rs1 = rx(), rf()
	case FEQS, FLTS, FLES, FEQD, FLTD, FLED:
		in.Rd, in.Rs1, in.Rs2 = rx(), rf(), rf()
	case FCVTSW, FCVTSL, FCVTDW, FCVTDL, FMVWX, FMVDX:
		in.Rd, in.Rs1 = rf(), rx()
	case VSETVLI:
		in.Rd, in.Rs1, in.Imm = rx(), rx(), int64(MakeVType(rng.Intn(4), rng.Intn(4)))
	case VSETVL:
		in.Rd, in.Rs1, in.Rs2 = rx(), rx(), rx()
	case VLE:
		in.Rd, in.Rs1 = rv(), rx()
	case VLSE:
		in.Rd, in.Rs1, in.Rs2 = rv(), rx(), rx()
	case VSE:
		in.Rs1, in.Rs2 = rx(), rv()
	case VSSE:
		in.Rs1, in.Rs2, in.Rs3 = rx(), rv(), rx()
	case VADDVV, VSUBVV, VMULVV, VMACCVV, VWMACCVV, VANDVV, VORVV, VXORVV,
		VSLLVV, VSRLVV, VMINVV, VMAXVV, VDIVVV, VREMVV, VREDSUMVS, VREDMAXVS,
		VFADDVV, VFSUBVV, VFMULVV, VFDIVVV, VFMACCVV, VFREDSUMVS:
		in.Rd, in.Rs1, in.Rs2 = rv(), rv(), rv()
	case VADDVX, VSUBVX, VMULVX:
		in.Rd, in.Rs1, in.Rs2 = rv(), rx(), rv()
	case VADDVI:
		in.Rd, in.Rs2, in.Imm = rv(), rv(), int64(rng.Intn(32)-16)
	case VMVVV:
		in.Rd, in.Rs1 = rv(), rv()
	case VMVVX, VMVSX:
		in.Rd, in.Rs1 = rv(), rx()
	case VMVXS:
		in.Rd, in.Rs2 = rx(), rv()
	case VMSEQVV:
		in.Rd, in.Rs1, in.Rs2 = rv(), rv(), rv()
	case VLXEI:
		in.Rd, in.Rs1, in.Rs2 = rv(), rx(), rv()
	case VSXEI:
		in.Rs1, in.Rs2, in.Rs3 = rx(), rv(), rv()
	case XLRB, XLRH, XLRW, XLRD, XLURB, XLURH, XLURW:
		in.Rd, in.Rs1, in.Rs2, in.Imm = rx(), rx(), rx(), int64(rng.Intn(4))
	case XSRB, XSRH, XSRW, XSRD:
		in.Rd, in.Rs1, in.Rs2, in.Imm = rx(), rx(), rx(), int64(rng.Intn(4))
	case XADDSL:
		in.Rd, in.Rs1, in.Rs2, in.Imm = rx(), rx(), rx(), int64(rng.Intn(4))
	case XEXT, XEXTU:
		lsb := rng.Intn(64)
		msb := lsb + rng.Intn(64-lsb)
		in.Rd, in.Rs1, in.Imm = rx(), rx(), int64(msb<<6|lsb)
	case XFF0, XFF1, XREV, XTSTNBZ:
		in.Rd, in.Rs1 = rx(), rx()
	case XMVEQZ, XMVNEZ, XMULA, XMULS, XMULAH, XMULSH, XMULAW, XMULSW:
		in.Rd, in.Rs1, in.Rs2 = rx(), rx(), rx()
	case XDCACHECVA, XDCACHEIVA, XTLBIASID, XTLBIVA:
		in.Rs1 = rx()
	case XDCACHECALL, XDCACHEIALL, XICACHEIALL, XSYNC,
		ECALL, EBREAK, MRET, SRET, WFI, FENCE, FENCEI:
		// no operands
	case SFENCEVMA:
		in.Rs1, in.Rs2 = rx(), rx()
	default:
		return in, false
	}
	// Every vector compute/memory op can carry a v0 mask.
	switch op.Class() {
	case ClassVALU, ClassVFPU, ClassVLoad, ClassVStore:
		in.Masked = rng.Intn(2) == 0
	}
	return in, true
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(910))
	for op := Op(1); op < numOps; op++ {
		for trial := 0; trial < 64; trial++ {
			in, ok := randInst(rng, op)
			if !ok {
				t.Fatalf("randInst has no generator for %v", op)
			}
			raw, err := Encode(in)
			if err != nil {
				t.Fatalf("encode %v: %v", op, err)
			}
			got := Decode(raw)
			if got.Op != in.Op || got.Rd != in.Rd || got.Rs1 != in.Rs1 ||
				got.Rs2 != in.Rs2 || got.Rs3 != in.Rs3 ||
				got.Imm != in.Imm || got.CSR != in.CSR || got.Masked != in.Masked {
				t.Fatalf("%v: round trip mismatch\n in: %+v\nout: %+v (raw %08x)", op, in, got, raw)
			}
			// re-encode: decode must preserve everything Encode consumes
			raw2, err := Encode(got)
			if err != nil {
				t.Fatalf("re-encode %v: %v", op, err)
			}
			if raw2 != raw {
				t.Fatalf("%v: encode→decode→encode not byte-identical: %08x vs %08x", op, raw, raw2)
			}
		}
	}
}

// TestOpMetaComplete: the op table checks itself. Every op has a name, a
// class and a format; no mnemonic is used twice (ParseOp finds each op by its
// own); a match sets no bit its format leaves free (fence's iorw, iorw
// aside); no word is matched by two rows — Decode scans its candidates in
// no particular order; and every operand's immediate layout is sound.
func TestOpMetaComplete(t *testing.T) {
	for o := Operand(1); o < numOperands; o++ {
		checkImmField(t, fmt.Sprintf("operand %d", o), &operands[o].imm)
	}
	for op := Op(1); op < numOps; op++ {
		m := &opMeta[op]
		if m.name == "" {
			t.Errorf("op %d has no metadata", op)
		}
		if m.class == ClassIllegal {
			t.Errorf("op %v has illegal class", op)
		}
		if got, ok := ParseOp(m.name); !ok || got != op {
			t.Errorf("ParseOp(%q) = op %d, %v; want op %d: is the mnemonic used twice?", m.name, got, ok, op)
		}
		if m.form == nil {
			t.Errorf("op %v has no format", op)
			continue
		}
		if m.match&^m.form.mask != 0 && op != FENCE {
			t.Errorf("%v: match %08x sets bits outside its format's mask %08x", op, m.match, m.form.mask)
		}
		for other := op + 1; other < numOps; other++ {
			o := &opMeta[other]
			if o.form != nil && (m.match^o.match)&m.form.mask&o.form.mask == 0 {
				t.Errorf("%v and %v both match %08x", op, other, m.match&m.form.mask|o.match&o.form.mask)
			}
		}
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	f := func(raw uint32) bool {
		_ = Decode(raw | 3) // force 32-bit form
		_ = Decode16(uint16(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestRVCRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	compressed := 0
	for op := Op(1); op < numOps; op++ {
		for trial := 0; trial < 200; trial++ {
			in, ok := randInst(rng, op)
			if !ok {
				continue
			}
			raw16, ok := Compress(in)
			if !ok {
				continue
			}
			compressed++
			got := Decode16(raw16)
			got.Size = 4 // compare payloads, not size
			in.Size = 4
			// c.li decodes as addi rd, zero, imm — canonicalize
			if got.Op != in.Op || got.Rd != in.Rd || got.Rs1 != in.Rs1 ||
				got.Rs2 != in.Rs2 || got.Imm != in.Imm {
				t.Fatalf("%v: rvc round trip mismatch\n in: %+v\nout: %+v (raw %04x)", op, in, got, raw16)
			}
		}
	}
	if compressed < 100 {
		t.Fatalf("too few compressible samples: %d", compressed)
	}
}

func TestIntALUSemantics(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		imm  int64
		want uint64
	}{
		{ADD, 2, 3, 0, 5},
		{SUB, 2, 3, 0, ^uint64(0)},
		{ADDW, 0x7FFFFFFF, 1, 0, 0xFFFFFFFF80000000},
		{SRAI, 0xFFFFFFFFFFFFFFF0, 0, 2, 0xFFFFFFFFFFFFFFFC},
		{SRLI, 0xF0, 0, 4, 0xF},
		{SLTU, 1, 2, 0, 1},
		{SLT, ^uint64(0), 0, 0, 1},
		{DIV, 10, 3, 0, 3},
		{DIV, 10, 0, 0, ^uint64(0)},
		{REM, 10, 0, 0, 10},
		{DIV, 1 << 63, ^uint64(0), 0, 1 << 63},
		{REM, 1 << 63, ^uint64(0), 0, 0},
		{MULHU, 1 << 32, 1 << 32, 0, 1},
		{MULH, ^uint64(0), ^uint64(0), 0, 0}, // (-1)*(-1)=1, high half 0
		{XEXTU, 0xABCD, 0, 15<<6 | 8, 0xAB},
		{XEXT, 0x80, 0, 7<<6 | 0, 0xFFFFFFFFFFFFFF80},
		{XREV, 0x0102030405060708, 0, 0, 0x0807060504030201},
		{XFF1, 1 << 62, 0, 0, 1},
		{XFF0, ^uint64(0), 0, 0, 64},
		{XTSTNBZ, 0x00FF00FF00FF00FF, 0, 0, 0xFF00FF00FF00FF00},
		{XADDSL, 100, 3, 2, 112},
		{XSRRI, 1, 0, 1, 1 << 63},
	}
	for _, c := range cases {
		got, ok := EvalIntALU(c.op, c.a, c.b, 0, c.imm, 4)
		if !ok {
			t.Fatalf("%v: not an ALU op", c.op)
		}
		if got != c.want {
			t.Errorf("%v(%#x,%#x,imm=%d) = %#x, want %#x", c.op, c.a, c.b, c.imm, got, c.want)
		}
	}
}

func TestMulhMatchesBigMul(t *testing.T) {
	f := func(a, b int64) bool {
		got, _ := EvalIntALU(MULH, uint64(a), uint64(b), 0, 0, 4)
		// reference via 128-bit split computation
		hi := mulh128(a, b)
		return got == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// mulh128 computes the high 64 bits of the signed 128-bit product using
// schoolbook 32-bit limbs, as an independent reference.
func mulh128(a, b int64) uint64 {
	neg := (a < 0) != (b < 0)
	ua, ub := absU(a), absU(b)
	aLo, aHi := ua&0xFFFFFFFF, ua>>32
	bLo, bHi := ub&0xFFFFFFFF, ub>>32
	t := aLo * bLo
	lo := t & 0xFFFFFFFF
	carry := t >> 32
	t = aHi*bLo + carry
	mid1 := t & 0xFFFFFFFF
	hi := t >> 32
	t = aLo*bHi + mid1
	lo |= (t & 0xFFFFFFFF) << 32
	hi += t >> 32
	hi += aHi * bHi
	if neg && (lo|hi) != 0 {
		hi = ^hi
		if lo == 0 {
			hi++
		}
	}
	return hi
}

func TestBranchSemantics(t *testing.T) {
	if !EvalBranch(BLT, ^uint64(0), 0) {
		t.Error("blt -1 < 0 should be taken")
	}
	if EvalBranch(BLTU, ^uint64(0), 0) {
		t.Error("bltu max < 0 should not be taken")
	}
	if !EvalBranch(BGEU, ^uint64(0), 0) {
		t.Error("bgeu should be taken")
	}
}

func TestFPUSemantics(t *testing.T) {
	got, ok := EvalFPU(FADDD, F64(1.5), F64(2.25), 0)
	if !ok || got != F64(3.75) {
		t.Errorf("fadd.d = %x", got)
	}
	got, _ = EvalFPU(FADDS, F32(1.5), F32(2.25), 0)
	if UnboxF32(got) != 3.75 {
		t.Errorf("fadd.s = %v", UnboxF32(got))
	}
	got, _ = EvalFPU(FMADDD, F64(2), F64(3), F64(4))
	if got != F64(10) {
		t.Errorf("fmadd.d = %x", got)
	}
	got, _ = EvalFPU(FCVTWD, F64(-3.7), 0, 0)
	if int64(got) != -3 {
		t.Errorf("fcvt.w.d(-3.7) = %d, want -3 (round toward zero)", int64(got))
	}
	got, _ = EvalFPU(FLTD, F64(1), F64(2), 0)
	if got != 1 {
		t.Error("flt.d 1<2 should be 1")
	}
}

func TestAMOSemantics(t *testing.T) {
	if EvalAMO(AMOADDD, 5, 7) != 12 {
		t.Error("amoadd.d")
	}
	if EvalAMO(AMOMAXW, uint64(uint32(0xFFFFFFFF)), 1) != 1 {
		t.Error("amomax.w should treat 0xFFFFFFFF as -1")
	}
	if EvalAMO(AMOSWAPD, 5, 7) != 7 {
		t.Error("amoswap.d")
	}
}

func TestVType(t *testing.T) {
	vt := MakeVType(SEW16, 1) // e16, m2
	if vt.SEW() != 16 || vt.LMUL() != 2 {
		t.Fatalf("vtype fields: sew=%d lmul=%d", vt.SEW(), vt.LMUL())
	}
	if vt.VLMAX(128) != 16 {
		t.Fatalf("vlmax = %d, want 16", vt.VLMAX(128))
	}
	if vt.String() != "e16,m2" {
		t.Fatalf("string = %q", vt.String())
	}
	parsed, err := ParseVTypeArgs([]string{"e16", "m2"})
	if err != nil || parsed != vt {
		t.Fatalf("parse: %v %v", parsed, err)
	}
}

func TestRegNames(t *testing.T) {
	for _, c := range []struct {
		name string
		reg  Reg
	}{{"a0", A0}, {"x10", A0}, {"fp", S0}, {"fa0", F(10)}, {"v3", V(3)}} {
		got, ok := ParseReg(c.name)
		if !ok || got != c.reg {
			t.Errorf("ParseReg(%q) = %v, %v", c.name, got, ok)
		}
	}
	if A0.String() != "a0" || F(10).String() != "fa0" || V(3).String() != "v3" {
		t.Error("reg String()")
	}
}

func TestSatpFields(t *testing.T) {
	s := MakeSatp(SatpModeSV39, 0xBEEF, 0x12345)
	if SatpMode(s) != SatpModeSV39 || SatpASID(s) != 0xBEEF || SatpPPN(s) != 0x12345 {
		t.Fatalf("satp fields: %x", s)
	}
}

func TestDivLatencyBounds(t *testing.T) {
	f := func(v uint64) bool {
		l := DivLatency(DIV, v)
		return l >= 6 && l <= 25
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSourcesAndWrites(t *testing.T) {
	in := NewInst(ADD)
	in.Rd, in.Rs1, in.Rs2 = A0, A1, A2
	regs, n := in.Sources()
	if n != 2 || regs[0] != A1 || regs[1] != A2 {
		t.Fatalf("sources: %v %d", regs, n)
	}
	if !in.WritesReg() {
		t.Error("add writes rd")
	}
	st := NewInst(SD)
	st.Rs1, st.Rs2 = A0, A1
	if st.WritesReg() {
		t.Error("sd writes no register")
	}
	mac := NewInst(XMULA)
	mac.Rd, mac.Rs1, mac.Rs2 = A0, A1, A2
	_, n = mac.Sources()
	if n != 3 {
		t.Fatalf("mula reads rd: n=%d", n)
	}
}
