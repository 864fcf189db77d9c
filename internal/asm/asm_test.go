package asm

import (
	"math/rand"
	"testing"

	"xt910/isa"
)

func decodeAll(t *testing.T, p *Program) []isa.Inst {
	t.Helper()
	var out []isa.Inst
	for off := 0; off < len(p.Data); {
		lo := uint16(p.Data[off]) | uint16(p.Data[off+1])<<8
		if lo&3 == 3 {
			raw := uint32(lo) | uint32(p.Data[off+2])<<16 | uint32(p.Data[off+3])<<24
			out = append(out, isa.Decode(raw))
			off += 4
		} else {
			out = append(out, isa.Decode16(lo))
			off += 2
		}
	}
	return out
}

func TestBasicProgram(t *testing.T) {
	src := `
_start:
    li   a0, 42
    li   a1, 0x12345678
    add  a2, a0, a1
    sd   a2, 0(sp)
    ld   a3, 0(sp)
    beq  a2, a3, ok
    ebreak
ok:
    ret
`
	p, err := Assemble(src, Options{Base: 0x1000})
	if err != nil {
		t.Fatal(err)
	}
	insts := decodeAll(t, p)
	if insts[0].Op != isa.ADDI || insts[0].Imm != 42 {
		t.Fatalf("li expansion: %v", insts[0])
	}
	if p.Entry != 0x1000 {
		t.Fatalf("entry = %#x", p.Entry)
	}
	for _, in := range insts {
		if in.Op == isa.ILLEGAL {
			t.Fatalf("illegal instruction in output")
		}
	}
}

func TestBranchTargets(t *testing.T) {
	src := `
_start:
    beq a0, a1, fwd
    nop
fwd:
    bne a0, a1, _start
`
	p, err := Assemble(src, Options{Base: 0x1000})
	if err != nil {
		t.Fatal(err)
	}
	insts := decodeAll(t, p)
	if insts[0].Imm != 8 {
		t.Fatalf("forward branch imm = %d, want 8", insts[0].Imm)
	}
	if insts[2].Imm != -8 {
		t.Fatalf("backward branch imm = %d, want -8", insts[2].Imm)
	}
}

func TestLiMaterialization(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	values := []int64{0, 1, -1, 2047, -2048, 2048, 1 << 20, -(1 << 20),
		1<<31 - 1, -(1 << 31), 1 << 31, 1 << 40, -(1 << 40), 0x7FFFFFFFFFFFFFFF, -0x8000000000000000}
	for i := 0; i < 50; i++ {
		values = append(values, rng.Int63()-rng.Int63())
	}
	for _, v := range values {
		p, err := Assemble("li a0, "+itoa(v), Options{})
		if err != nil {
			t.Fatalf("li %d: %v", v, err)
		}
		// interpret the expansion
		var reg int64
		for _, in := range decodeAll(t, p) {
			switch in.Op {
			case isa.ADDI:
				if in.Rs1 == isa.Zero {
					reg = in.Imm
				} else {
					reg += in.Imm
				}
			case isa.LUI:
				reg = in.Imm
			case isa.ADDIW:
				reg = int64(int32(reg + in.Imm))
			case isa.SLLI:
				reg <<= uint(in.Imm)
			default:
				t.Fatalf("unexpected op %v in li expansion of %d", in.Op, v)
			}
		}
		if reg != v {
			t.Fatalf("li %d materialized %d", v, reg)
		}
	}
}

func itoa(v int64) string {
	// strconv is already imported by the package; use simple formatting here
	if v >= 0 {
		return uitoa(uint64(v))
	}
	return "-" + uitoa(uint64(-v))
}

func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestDataDirectives(t *testing.T) {
	src := `
_start:
    nop
data:
    .dword 0x1122334455667788
    .word 0xAABBCCDD
    .half 0x1234
    .byte 0xFF
    .asciz "hi"
    .align 3
aligned:
    .dword 7
`
	p, err := Assemble(src, Options{Base: 0x1000, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	d := p.Symbols["data"] - p.Base
	if p.Data[d] != 0x88 || p.Data[d+7] != 0x11 {
		t.Fatalf("dword bytes wrong: % x", p.Data[d:d+8])
	}
	al := p.Symbols["aligned"]
	if al%8 != 0 {
		t.Fatalf("aligned symbol %#x not 8-aligned", al)
	}
}

func TestCompression(t *testing.T) {
	src := `
_start:
    addi a0, a0, 1
    add  a1, a1, a0
    ld   a2, 8(a0)
    sd   a2, 16(a0)
`
	big, err := Assemble(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	small, err := Assemble(src, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Data) >= len(big.Data) {
		t.Fatalf("compression did not shrink image: %d vs %d", len(small.Data), len(big.Data))
	}
	if len(small.Data) != 8 { // all four should compress to 2 bytes each
		t.Fatalf("expected 8 bytes, got %d", len(small.Data))
	}
}

func TestPseudoInstructions(t *testing.T) {
	src := `
_start:
    mv   a0, a1
    not  a2, a3
    neg  a4, a5
    seqz a6, a7
    snez t0, t1
    sext.w t2, t3
    beqz a0, done
    bnez a0, done
    bgt  a0, a1, done
    ble  a0, a1, done
    j    done
    call done
    jr   ra
done:
    ret
`
	p, err := Assemble(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range decodeAll(t, p) {
		if in.Op == isa.ILLEGAL {
			t.Fatal("illegal instruction from pseudo expansion")
		}
	}
}

func TestVectorSyntax(t *testing.T) {
	src := `
_start:
    vsetvli t0, a0, e32, m2
    vle.v   v0, (a1)
    vle.v   v2, (a2)
    vadd.vv v4, v0, v2
    vmacc.vv v6, v0, v2
    vse.v   v4, (a3)
    vmv.x.s a4, v4
`
	p, err := Assemble(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	insts := decodeAll(t, p)
	if insts[0].Op != isa.VSETVLI || isa.VType(insts[0].Imm).SEW() != 32 {
		t.Fatalf("vsetvli: %+v", insts[0])
	}
	if insts[3].Op != isa.VADDVV || insts[3].Rd != isa.V(4) || insts[3].Rs2 != isa.V(0) {
		t.Fatalf("vadd.vv: %+v", insts[3])
	}
}

func TestCustomExtSyntax(t *testing.T) {
	src := `
_start:
    lrw   a0, a1, a2, 2
    srd   a3, a4, a5, 3
    addsl a0, a1, a2, 1
    ext   a0, a1, 15, 8
    extu  a0, a1, 15, 8
    ff1   a0, a1
    rev   a2, a3
    mula  a4, a5, a6
    tlbi.asid a0
    dcache.call
`
	p, err := Assemble(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	insts := decodeAll(t, p)
	if insts[0].Op != isa.XLRW || insts[0].Imm != 2 {
		t.Fatalf("lrw: %+v", insts[0])
	}
	if insts[3].Op != isa.XEXT || insts[3].Imm != 15<<6|8 {
		t.Fatalf("ext: %+v", insts[3])
	}
}

// TestErrors pins the text of each rejection, as the assembler worded it
// before lines were tokenized once.
func TestErrors(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"bogus a0, a1", `asm: line 1: bogus a0, a1: unknown mnemonic "bogus"`},
		{"addi a0, a0, undefined_symbol_xyz", `asm: line 1: addi a0, a0, undefined_symbol_xyz: undefined symbol "undefined_symbol_xyz"`},
		{"lw a0, a1", `asm: line 1: lw a0, a1: bad memory operand "a1"`},
		{"dup:\ndup:", `asm: line 2: dup:: duplicate label "dup"`},
		// Every mnemonic counts its operands: each of these used to assemble,
		// the surplus operand dropped or encoded into a field the op lacks.
		{"sfence.vma x1", "asm: line 1: sfence.vma x1: sfence.vma needs 0 or 2 operands"},
		{"dcache.cva x1, x2", "asm: line 1: dcache.cva x1, x2: dcache.cva needs 0 or 1 operands"},
		{"dcache.call x5", "asm: line 1: dcache.call x5: dcache.call needs 0 operands"},
		{"ecall x1, x2", "asm: line 1: ecall x1, x2: ecall needs 0 operands"},
		{"mret 5", "asm: line 1: mret 5: mret needs 0 operands"},
		{"wfi foo", "asm: line 1: wfi foo: wfi needs 0 operands"},
		{"fence.i x3", "asm: line 1: fence.i x3: fence.i needs 0 operands"},
		{"sync 1, 2, 3", "asm: line 1: sync 1, 2, 3: sync needs 0 operands"},
		{"vmv.v.v v1, v2, v3", "asm: line 1: vmv.v.v v1, v2, v3: vmv.v.v needs 2 operands"},
		{"vle.v v1, (x2), x3", "asm: line 1: vle.v v1, (x2), x3: vle.v needs 2 operands"},
		{"vse.v v1, (x2), x3", "asm: line 1: vse.v v1, (x2), x3: vse.v needs 2 operands"},
		{"fsqrt.d f1, f2, f3", "asm: line 1: fsqrt.d f1, f2, f3: fsqrt.d needs 2 operands"},
		{"fcvt.l.d x1, f2, f3", "asm: line 1: fcvt.l.d x1, f2, f3: fcvt.l.d needs 2 operands"},
		{"ecall v0.t", "asm: line 1: ecall v0.t: ecall needs 0 operands"},
	} {
		_, err := Assemble(c.src, Options{})
		if err == nil {
			t.Errorf("expected error for %q", c.src)
		} else if err.Error() != c.want {
			t.Errorf("%q:\n got %s\nwant %s", c.src, err, c.want)
		}
	}
}

// TestMalformedDirectives: a padding directive with no operand, an alignment
// that is not a power of two below 2^64, or padding past maxImageBytes is a
// line-numbered error — each of these used to panic or to loop a byte at a
// time until memory ran out — and so is a pseudo-instruction short of
// operands, which reads the absent operand as empty, or a vector instruction
// short of them.
func TestMalformedDirectives(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{".org", "asm: line 1: .org: .org needs an operand"},
		{"nop\n.align", "asm: line 2: .align: .align needs an operand"},
		{".space", "asm: line 1: .space: .space needs an operand"},
		{"x: .zero", "asm: line 1: x: .zero: .zero needs an operand"},
		{".align -1", "asm: line 1: .align -1: alignment 2^-1 out of range"},
		{".align 64", "asm: line 1: .align 64: alignment 2^64 out of range"},
		{"nop\n.align 63", "asm: line 2: .align 63: image would exceed 67108864 bytes"},
		{".space 0x7fffffffffffffff", "asm: line 1: .space 0x7fffffffffffffff: image would exceed 67108864 bytes"},
		{".zero 67108865", "asm: line 1: .zero 67108865: image would exceed 67108864 bytes"},
		{".space 67108864\n.byte 1\n.space 67108864", "asm: line 3: .space 67108864: image would exceed 67108864 bytes"},
		{".org 0xffffffffffff", "asm: line 1: .org 0xffffffffffff: image would exceed 67108864 bytes"},
		{".org -1", "asm: line 1: .org -1: image would exceed 67108864 bytes"},
		{"not", `asm: line 1: not: bad register ""`},
		{"neg a0", `asm: line 1: neg a0: bad register ""`},
		{"zext.w a0", `asm: line 1: zext.w a0: bad register ""`},
		{"vle.v v1", "asm: line 1: vle.v v1: vle.v needs 2 operands"},
		{"vmv.x.s", "asm: line 1: vmv.x.s: vmv.x.s needs 2 operands"},
	} {
		for _, compress := range []bool{false, true} {
			_, err := Assemble(c.src, Options{Compress: compress})
			if err == nil {
				t.Errorf("expected error for %q", c.src)
			} else if err.Error() != c.want {
				t.Errorf("%q:\n got %s\nwant %s", c.src, err, c.want)
			}
		}
	}
}

// TestPaddingDirectives: .org, .align, .space and .zero pad with zeros up to
// the image bound, and a negative .space is ignored as it always was.
func TestPaddingDirectives(t *testing.T) {
	p, err := Assemble(".byte 1\n.align 3\n.byte 2\n.space 3\n.zero 2\n.space -4\n.org 0x1010\n.byte 3\n.align 0\n.byte 4", Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 4}
	if string(p.Data) != string(want) {
		t.Fatalf("padding: got %v want %v", p.Data, want)
	}
	p, err = Assemble(".space 67108864", Options{})
	if err != nil || len(p.Data) != maxImageBytes {
		t.Fatalf("an image of exactly maxImageBytes: %v", err)
	}
}

func TestEquAndExpr(t *testing.T) {
	src := `
.equ N, 64
_start:
    li a0, N*8
    li a1, N+1
    li a2, N-1
`
	p, err := Assemble(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	insts := decodeAll(t, p)
	if insts[0].Imm != 512 || insts[1].Imm != 65 || insts[2].Imm != 63 {
		t.Fatalf("expr values: %d %d %d", insts[0].Imm, insts[1].Imm, insts[2].Imm)
	}
}

// TestDisasmReparses: the disassembler's output must re-assemble to the
// identical instruction, mask included — the contract behind the `xtasm -d`
// listing and a shrunk reproducer — for every op, masked and unmasked, except
// the pc-relative branches and jal (their printed immediate is an offset,
// while assembly source names absolute targets).
func TestDisasmReparses(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		if c := op.Class(); c == isa.ClassBranch || op == isa.JAL {
			continue
		}
		for trial := 0; trial < 48; trial++ {
			in := randEncoding(rng, op, trial%2 == 1)
			text := in.String()
			p, err := Assemble("_start:\n    "+text+"\n", Options{})
			if err != nil {
				t.Fatalf("%v: %q does not re-assemble: %v", op, text, err)
			}
			got := decodeAll(t, p)
			if len(got) != 1 || got[0] != in {
				t.Fatalf("%v: %q round trip mismatch\n in: %+v\nout: %+v", op, text, in, got)
			}
		}
	}
}

// randEncoding returns a random instruction of op as Decode gives it: every
// operand of the op's format takes a random value, and the trip through
// Encode sorts the registers into their files.
func randEncoding(rng *rand.Rand, op isa.Op, masked bool) isa.Inst {
	in := isa.NewInst(op)
	for _, o := range op.Operands() {
		if r := o.Reg(&in); r != nil {
			*r = isa.X(rng.Intn(32))
		}
	}
	in.Masked = masked
	in.CSR = uint16(rng.Intn(4096))
	if lo, hi, align, ok := isa.ImmRange(op); ok {
		in.Imm = lo + rng.Int63n((hi-lo)/align+1)*align
	}
	if op == isa.VSETVLI { // the spellable vtypes
		in.Imm = int64(isa.MakeVType(rng.Intn(4), rng.Intn(4)))
	}
	return isa.Decode(isa.MustEncode(in))
}
