package isa

import (
	"math"
	"math/bits"
)

// This file holds the pure architectural semantics of every scalar operation.
// Both the functional emulator (internal/emu) and the out-of-order pipeline
// (internal/core) call these helpers, guaranteeing that the golden model and
// the timing model can never disagree on a result.

func sext32(v uint64) uint64 { return uint64(int64(int32(uint32(v)))) }

// EvalIntALU computes the result of a single-cycle integer operation. b holds
// the second register operand or the immediate, as appropriate; pc is needed
// by lui/auipc/jal/jalr (which produce link or pc-relative values).
// ok is false when the op is not an integer ALU/Mul/Div producer.
func EvalIntALU(op Op, a, b uint64, pc uint64, imm int64, size uint8) (res uint64, ok bool) {
	ok = true
	switch op {
	case LUI:
		res = uint64(imm)
	case AUIPC:
		res = pc + uint64(imm)
	case JAL, JALR:
		res = pc + uint64(size)
	case ADDI:
		res = a + uint64(imm)
	case SLTI:
		if int64(a) < imm {
			res = 1
		}
	case SLTIU:
		if a < uint64(imm) {
			res = 1
		}
	case XORI:
		res = a ^ uint64(imm)
	case ORI:
		res = a | uint64(imm)
	case ANDI:
		res = a & uint64(imm)
	case SLLI:
		res = a << (imm & 63)
	case SRLI:
		res = a >> (imm & 63)
	case SRAI:
		res = uint64(int64(a) >> (imm & 63))
	case ADDIW:
		res = sext32(a + uint64(imm))
	case SLLIW:
		res = sext32(a << (imm & 31))
	case SRLIW:
		res = sext32(uint64(uint32(a) >> (imm & 31)))
	case SRAIW:
		res = uint64(int64(int32(uint32(a)) >> (imm & 31)))
	case ADD:
		res = a + b
	case SUB:
		res = a - b
	case SLL:
		res = a << (b & 63)
	case SLT:
		if int64(a) < int64(b) {
			res = 1
		}
	case SLTU:
		if a < b {
			res = 1
		}
	case XOR:
		res = a ^ b
	case SRL:
		res = a >> (b & 63)
	case SRA:
		res = uint64(int64(a) >> (b & 63))
	case OR:
		res = a | b
	case AND:
		res = a & b
	case ADDW:
		res = sext32(a + b)
	case SUBW:
		res = sext32(a - b)
	case SLLW:
		res = sext32(a << (b & 31))
	case SRLW:
		res = sext32(uint64(uint32(a) >> (b & 31)))
	case SRAW:
		res = uint64(int64(int32(uint32(a)) >> (b & 31)))
	case MUL:
		res = a * b
	case MULH:
		hi, _ := bits.Mul64(absU(int64(a)), absU(int64(b)))
		lo := a * b
		res = hi
		if (int64(a) < 0) != (int64(b) < 0) && lo|hi != 0 {
			// negate the 128-bit product
			res = ^hi
			if lo == 0 {
				res++
			}
		}
	case MULHU:
		res, _ = bits.Mul64(a, b)
	case MULHSU:
		hi, lo := bits.Mul64(absU(int64(a)), b)
		res = hi
		if int64(a) < 0 && lo|hi != 0 {
			res = ^hi
			if lo == 0 {
				res++
			}
		}
	case MULW:
		res = sext32(a * b)
	case DIV:
		res = divS(int64(a), int64(b))
	case DIVU:
		res = divU(a, b)
	case REM:
		res = remS(int64(a), int64(b))
	case REMU:
		res = remU(a, b)
	case DIVW:
		res = sext32(divS(int64(int32(uint32(a))), int64(int32(uint32(b)))))
	case DIVUW:
		res = sext32(divU(uint64(uint32(a)), uint64(uint32(b))))
	case REMW:
		res = sext32(remS(int64(int32(uint32(a))), int64(int32(uint32(b)))))
	case REMUW:
		res = sext32(remU(uint64(uint32(a)), uint64(uint32(b))))
	case XADDSL:
		res = a + b<<(imm&3)
	case XEXT:
		msb, lsb := uint(imm>>6&63), uint(imm&63)
		if msb < lsb {
			msb = lsb
		}
		w := msb - lsb + 1
		res = uint64(int64(a<<(64-1-msb)) >> (64 - w))
	case XEXTU:
		msb, lsb := uint(imm>>6&63), uint(imm&63)
		if msb < lsb {
			msb = lsb
		}
		res = a << (64 - 1 - msb) >> (64 - (msb - lsb + 1))
	case XFF0:
		res = uint64(bits.LeadingZeros64(^a))
	case XFF1:
		res = uint64(bits.LeadingZeros64(a))
	case XREV:
		res = bits.ReverseBytes64(a)
	case XSRRI:
		res = bits.RotateLeft64(a, -int(imm&63))
	case XTSTNBZ:
		for i := 0; i < 8; i++ {
			if a>>(8*i)&0xFF == 0 {
				res |= 0xFF << (8 * i)
			}
		}
	default:
		ok = false
	}
	return res, ok
}

// EvalIntALU3 computes three-source integer ops (MACs and conditional moves),
// where c is the old destination value.
func EvalIntALU3(op Op, a, b, c uint64) (uint64, bool) {
	switch op {
	case XMULA:
		return c + a*b, true
	case XMULS:
		return c - a*b, true
	case XMULAH:
		return c + uint64(int64(int16(a))*int64(int16(b))), true
	case XMULSH:
		return c - uint64(int64(int16(a))*int64(int16(b))), true
	case XMULAW:
		return sext32(c + a*b), true
	case XMULSW:
		return sext32(c - a*b), true
	case XMVEQZ:
		if b == 0 {
			return a, true
		}
		return c, true
	case XMVNEZ:
		if b != 0 {
			return a, true
		}
		return c, true
	}
	return 0, false
}

func absU(v int64) uint64 {
	if v < 0 {
		return uint64(-v)
	}
	return uint64(v)
}

func divS(a, b int64) uint64 {
	switch {
	case b == 0:
		return ^uint64(0)
	case a == math.MinInt64 && b == -1:
		return uint64(a)
	}
	return uint64(a / b)
}

func divU(a, b uint64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	return a / b
}

func remS(a, b int64) uint64 {
	switch {
	case b == 0:
		return uint64(a)
	case a == math.MinInt64 && b == -1:
		return 0
	}
	return uint64(a % b)
}

func remU(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}

// EvalBranch evaluates a conditional branch's direction.
func EvalBranch(op Op, a, b uint64) bool {
	switch op {
	case BEQ:
		return a == b
	case BNE:
		return a != b
	case BLT:
		return int64(a) < int64(b)
	case BGE:
		return int64(a) >= int64(b)
	case BLTU:
		return a < b
	case BGEU:
		return a >= b
	}
	return false
}

// FP register values are kept NaN-boxed in uint64s: a float32 occupies the
// low 32 bits with the high bits all-ones, per the RISC-V convention.

// BoxF32 NaN-boxes a float32 bit pattern.
func BoxF32(bits32 uint32) uint64 { return 0xFFFFFFFF00000000 | uint64(bits32) }

// UnboxF32 extracts a float32 from a NaN-boxed register value.
func UnboxF32(v uint64) float32 {
	if v>>32 != 0xFFFFFFFF {
		return float32(math.NaN())
	}
	return math.Float32frombits(uint32(v))
}

// MemAddr is a scalar memory op's effective address from its base rs1 and
// index rs2: rs1 + imm, or for the custom indexed forms (§VIII-A) rs1 +
// rs2<<imm[1:0], the index's low word zero-extended for xlur*.
func MemAddr(op Op, rs1, rs2 uint64, imm int64) uint64 {
	switch op {
	case XLRB, XLRH, XLRW, XLRD, XSRB, XSRH, XSRW, XSRD:
		return rs1 + rs2<<uint(imm&3)
	case XLURB, XLURH, XLURW:
		return rs1 + uint64(uint32(rs2))<<uint(imm&3)
	}
	return rs1 + uint64(imm)
}

// ExtendLoad is the register value a load op writes for the size bytes v it
// read: flw NaN-boxes, fld and full-width loads keep v, and a narrower
// integer load zero- or sign-extends it as op says.
func ExtendLoad(op Op, v uint64, size int) uint64 {
	switch op {
	case FLW:
		return BoxF32(uint32(v))
	case FLD:
		return v
	}
	if size == 8 {
		return v
	}
	v &= 1<<(8*size) - 1
	if op.LoadUnsigned() {
		return v
	}
	sh := uint(64 - 8*size)
	return uint64(int64(v<<sh) >> sh)
}

// ExtendAMO is the register value an LR or AMO of size bytes returns for the
// memory value v: a word sign-extends, a doubleword is v.
func ExtendAMO(v uint64, size int) uint64 {
	if size == 4 {
		return uint64(int64(int32(uint32(v))))
	}
	return v
}

// F32 converts a float32 value to its boxed register representation.
func F32(f float32) uint64 { return BoxF32(math.Float32bits(f)) }

// F64 converts a float64 value to its register representation.
func F64(f float64) uint64 { return math.Float64bits(f) }

// EvalFPU computes scalar floating-point operations. a, b, c are raw register
// values (NaN-boxed for single precision); the result is likewise raw.
// ok is false for non-FP ops.
func EvalFPU(op Op, a, b, c uint64) (uint64, bool) {
	sa, sb, sc := UnboxF32(a), UnboxF32(b), UnboxF32(c)
	da, db, dc := math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c)
	switch op {
	case FADDS:
		return F32(sa + sb), true
	case FSUBS:
		return F32(sa - sb), true
	case FMULS:
		return F32(sa * sb), true
	case FDIVS:
		return F32(sa / sb), true
	case FSQRTS:
		return F32(float32(math.Sqrt(float64(sa)))), true
	case FADDD:
		return F64(da + db), true
	case FSUBD:
		return F64(da - db), true
	case FMULD:
		return F64(da * db), true
	case FDIVD:
		return F64(da / db), true
	case FSQRTD:
		return F64(math.Sqrt(da)), true
	case FMADDS:
		return F32(float32(math.FMA(float64(sa), float64(sb), float64(sc)))), true
	case FMSUBS:
		return F32(float32(math.FMA(float64(sa), float64(sb), -float64(sc)))), true
	case FMADDD:
		return F64(math.FMA(da, db, dc)), true
	case FMSUBD:
		return F64(math.FMA(da, db, -dc)), true
	case FSGNJS:
		return BoxF32(math.Float32bits(sa)&0x7FFFFFFF | math.Float32bits(sb)&0x80000000), true
	case FSGNJNS:
		return BoxF32(math.Float32bits(sa)&0x7FFFFFFF | ^math.Float32bits(sb)&0x80000000), true
	case FSGNJXS:
		return BoxF32(math.Float32bits(sa) ^ math.Float32bits(sb)&0x80000000), true
	case FSGNJD:
		return a&0x7FFFFFFFFFFFFFFF | b&0x8000000000000000, true
	case FSGNJND:
		return a&0x7FFFFFFFFFFFFFFF | ^b&0x8000000000000000, true
	case FSGNJXD:
		return a ^ b&0x8000000000000000, true
	case FMINS:
		return F32(float32(math.Min(float64(sa), float64(sb)))), true
	case FMAXS:
		return F32(float32(math.Max(float64(sa), float64(sb)))), true
	case FMIND:
		return F64(math.Min(da, db)), true
	case FMAXD:
		return F64(math.Max(da, db)), true
	case FCVTWS:
		return uint64(int64(cvtToI32(float64(sa)))), true
	case FCVTLS:
		return uint64(cvtToI64(float64(sa))), true
	case FCVTWD:
		return uint64(int64(cvtToI32(da))), true
	case FCVTLD:
		return uint64(cvtToI64(da)), true
	case FCVTSW:
		return F32(float32(int32(uint32(a)))), true
	case FCVTSL:
		return F32(float32(int64(a))), true
	case FCVTDW:
		return F64(float64(int32(uint32(a)))), true
	case FCVTDL:
		return F64(float64(int64(a))), true
	case FCVTSD:
		return F32(float32(da)), true
	case FCVTDS:
		return F64(float64(sa)), true
	case FMVXW:
		return sext32(a & 0xFFFFFFFF), true
	case FMVWX:
		return BoxF32(uint32(a)), true
	case FMVXD:
		return a, true
	case FMVDX:
		return a, true
	case FEQS:
		return b2u(sa == sb), true
	case FLTS:
		return b2u(sa < sb), true
	case FLES:
		return b2u(sa <= sb), true
	case FEQD:
		return b2u(da == db), true
	case FLTD:
		return b2u(da < db), true
	case FLED:
		return b2u(da <= db), true
	}
	return 0, false
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// cvtToI32 rounds toward zero with RISC-V saturation semantics.
func cvtToI32(f float64) int32 {
	switch {
	case math.IsNaN(f):
		return math.MaxInt32
	case f >= math.MaxInt32:
		return math.MaxInt32
	case f <= math.MinInt32:
		return math.MinInt32
	}
	return int32(f)
}

func cvtToI64(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return math.MaxInt64
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	}
	return int64(f)
}

// EvalAMO computes the memory result of an AMO given the old memory value and
// the register operand. The register result of an AMO is always the old
// memory value (sign-extended for .w forms).
func EvalAMO(op Op, old, src uint64) uint64 {
	w := op.MemBytes() == 4
	if w {
		old, src = uint64(uint32(old)), uint64(uint32(src))
	}
	var v uint64
	switch op {
	case AMOSWAPW, AMOSWAPD:
		v = src
	case AMOADDW, AMOADDD:
		v = old + src
	case AMOANDW, AMOANDD:
		v = old & src
	case AMOORW, AMOORD:
		v = old | src
	case AMOXORW, AMOXORD:
		v = old ^ src
	case AMOMAXW:
		if int32(old) > int32(src) {
			v = old
		} else {
			v = src
		}
	case AMOMAXD:
		if int64(old) > int64(src) {
			v = old
		} else {
			v = src
		}
	case AMOMINW:
		if int32(old) < int32(src) {
			v = old
		} else {
			v = src
		}
	case AMOMIND:
		if int64(old) < int64(src) {
			v = old
		} else {
			v = src
		}
	}
	return v
}

// DivLatency returns the data-dependent latency of an iterative divide, which
// the XT-910's multi-cycle pipe exhibits (§VII quotes 6–25 cycles for
// divides). The model uses the significant-bit count of the dividend.
func DivLatency(op Op, dividend uint64) int {
	n := bits.Len64(dividend)
	lat := 6 + n/4
	if lat > 25 {
		lat = 25
	}
	return lat
}
