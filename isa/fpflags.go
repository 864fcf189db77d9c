package isa

import (
	"math"
	"math/big"
)

// IEEE-754 exception flags in the fflags CSR bit layout.
const (
	FFlagNX uint8 = 1 << 0 // inexact
	FFlagUF uint8 = 1 << 1 // underflow
	FFlagOF uint8 = 1 << 2 // overflow
	FFlagDZ uint8 = 1 << 3 // divide by zero
	FFlagNV uint8 = 1 << 4 // invalid operation
)

// bigPrec is wide enough that sums, products, and fused multiply-adds of
// float64 operands are always exact: the worst case (a subnormal product
// added to a value at the opposite end of the exponent range) spans about
// 4300 bits.
const bigPrec = 4500

// EvalFPUFlags is EvalFPU plus the IEEE exception flags the operation raises
// (fflags bit layout). The result value comes from EvalFPU itself, so a
// caller switching to this function can never change architectural results.
//
// Fidelity notes: rounding is always round-to-nearest-even regardless of frm
// (Go arithmetic semantics — frm is writable but non-functional), and NaN
// payloads follow Go, as EvalFPU already does. Flags are computed against
// the exact real result, so NX/OF/UF are exact-rounding flags even where the
// underlying value computation double-rounds (single-precision sqrt/FMA go
// through float64).
func EvalFPUFlags(op Op, a, b, c uint64) (res uint64, flags uint8, ok bool) {
	res, ok = EvalFPU(op, a, b, c)
	if !ok {
		return 0, 0, false
	}
	return res, fpuFlags(op, a, b, c), true
}

// fpuFlags computes the fflags bits raised by one scalar FP operation on raw
// register operands: by error-free transformation where fpuFlagsFast can
// prove the answer exact (fpflags_fast.go), through math/big otherwise.
func fpuFlags(op Op, a, b, c uint64) uint8 {
	if fl, ok := fpuFlagsFast(op, a, b, c); ok {
		return fl
	}
	return fpuFlagsBig(op, a, b, c)
}

// fpuFlagsBig is the reference: every operand range of every op, against the
// exact real result held in a math/big float. It allocates, and an add or
// multiply costs microseconds.
func fpuFlagsBig(op Op, a, b, c uint64) uint8 {
	sa, sb, sc := UnboxF32(a), UnboxF32(b), UnboxF32(c)
	da, db := math.Float64frombits(a), math.Float64frombits(b)
	dc := math.Float64frombits(c)
	switch op {
	case FADDS:
		return nv32(a, b) | addSub32(sa, sb, false)
	case FSUBS:
		return nv32(a, b) | addSub32(sa, sb, true)
	case FMULS:
		return nv32(a, b) | mul32(sa, sb)
	case FDIVS:
		return nv32(a, b) | div32(sa, sb)
	case FSQRTS:
		return nv32(a) | sqrt32(sa)
	case FMADDS:
		return nv32(a, b, c) | fma32(sa, sb, sc, false)
	case FMSUBS:
		return nv32(a, b, c) | fma32(sa, sb, sc, true)
	case FADDD:
		return nv64(a, b) | addSub64(da, db, false)
	case FSUBD:
		return nv64(a, b) | addSub64(da, db, true)
	case FMULD:
		return nv64(a, b) | mul64(da, db)
	case FDIVD:
		return nv64(a, b) | div64(da, db)
	case FSQRTD:
		return nv64(a) | sqrt64(da)
	case FMADDD:
		return nv64(a, b, c) | fma64(da, db, dc, false)
	case FMSUBD:
		return nv64(a, b, c) | fma64(da, db, dc, true)
	case FMINS, FMAXS:
		return nv32(a, b) // signaling NaN operands raise NV; quiet do not
	case FMIND, FMAXD:
		return nv64(a, b)
	case FCVTWS:
		return cvtIntFlags(float64(sa), -0x1p31, 0x1p31)
	case FCVTLS:
		return cvtIntFlags(float64(sa), -0x1p63, 0x1p63)
	case FCVTWD:
		return cvtIntFlags(da, -0x1p31, 0x1p31)
	case FCVTLD:
		return cvtIntFlags(da, -0x1p63, 0x1p63)
	case FCVTSW:
		v := int32(uint32(a))
		if float64(float32(v)) != float64(v) {
			return FFlagNX
		}
		return 0
	case FCVTSL:
		if _, acc := new(big.Float).SetInt64(int64(a)).Float32(); acc != big.Exact {
			return FFlagNX
		}
		return 0
	case FCVTDL:
		if _, acc := new(big.Float).SetInt64(int64(a)).Float64(); acc != big.Exact {
			return FFlagNX
		}
		return 0
	case FCVTDW:
		return 0 // every int32 is exact in double
	case FCVTSD:
		if math.IsNaN(da) {
			return nv64(a)
		}
		if math.IsInf(da, 0) {
			return 0
		}
		return flags32(bfloat(da))
	case FCVTDS:
		return nv32(a) // widening is exact; a signaling NaN still raises NV
	case FEQS:
		return nv32(a, b) // quiet comparison: NV on signaling NaN only
	case FEQD:
		return nv64(a, b)
	case FLTS, FLES:
		if isNaN32(sa) || isNaN32(sb) {
			return FFlagNV // signaling comparison: NV on any NaN
		}
		return 0
	case FLTD, FLED:
		if math.IsNaN(da) || math.IsNaN(db) {
			return FFlagNV
		}
		return 0
	}
	return 0 // sign injection and moves raise no flags
}

// sn64 reports whether v is a signaling NaN in double precision.
func sn64(v uint64) bool {
	return v&0x7FF0000000000000 == 0x7FF0000000000000 &&
		v&0x000FFFFFFFFFFFFF != 0 && v&0x0008000000000000 == 0
}

// sn32 reports whether v is a properly NaN-boxed signaling single-precision
// NaN. An improperly boxed value reads as the canonical quiet NaN and does
// not signal.
func sn32(v uint64) bool {
	if v>>32 != 0xFFFFFFFF {
		return false
	}
	w := uint32(v)
	return w&0x7F800000 == 0x7F800000 && w&0x007FFFFF != 0 && w&0x00400000 == 0
}

func nv32(vs ...uint64) uint8 {
	for _, v := range vs {
		if sn32(v) {
			return FFlagNV
		}
	}
	return 0
}

func nv64(vs ...uint64) uint8 {
	for _, v := range vs {
		if sn64(v) {
			return FFlagNV
		}
	}
	return 0
}

func isNaN32(f float32) bool { return f != f }

func isInf32(f float32) bool { return f > math.MaxFloat32 || f < -math.MaxFloat32 }

func abs32(f float32) float32 {
	if f < 0 {
		return -f
	}
	return f
}

// bfloat lifts a finite float64 into an exact big.Float.
func bfloat(f float64) *big.Float {
	return new(big.Float).SetPrec(bigPrec).SetFloat64(f)
}

// flags64 derives NX/OF/UF from an exact result z when rounded to double.
func flags64(z *big.Float) uint8 {
	r, acc := z.Float64()
	var fl uint8
	if acc != big.Exact {
		fl = FFlagNX
	}
	if math.IsInf(r, 0) && !z.IsInf() {
		fl |= FFlagOF | FFlagNX
	}
	if fl&FFlagNX != 0 && fl&FFlagOF == 0 && (r == 0 || math.Abs(r) < 0x1p-1022) {
		fl |= FFlagUF
	}
	return fl
}

// flags32 derives NX/OF/UF from an exact result z when rounded to single.
func flags32(z *big.Float) uint8 {
	r, acc := z.Float32()
	var fl uint8
	if acc != big.Exact {
		fl = FFlagNX
	}
	if isInf32(r) && !z.IsInf() {
		fl |= FFlagOF | FFlagNX
	}
	if fl&FFlagNX != 0 && fl&FFlagOF == 0 && (r == 0 || abs32(r) < 0x1p-126) {
		fl |= FFlagUF
	}
	return fl
}

func addSub64(x, y float64, sub bool) uint8 {
	if math.IsNaN(x) || math.IsNaN(y) {
		return 0
	}
	r := x + y
	if sub {
		r = x - y
	}
	if math.IsNaN(r) {
		return FFlagNV // inf - inf
	}
	if math.IsInf(x, 0) || math.IsInf(y, 0) {
		return 0
	}
	z := bfloat(x)
	if sub {
		z.Sub(z, bfloat(y))
	} else {
		z.Add(z, bfloat(y))
	}
	return flags64(z)
}

func addSub32(x, y float32, sub bool) uint8 {
	if isNaN32(x) || isNaN32(y) {
		return 0
	}
	r := x + y
	if sub {
		r = x - y
	}
	if isNaN32(r) {
		return FFlagNV
	}
	if isInf32(x) || isInf32(y) {
		return 0
	}
	z := bfloat(float64(x))
	if sub {
		z.Sub(z, bfloat(float64(y)))
	} else {
		z.Add(z, bfloat(float64(y)))
	}
	return flags32(z)
}

func mul64(x, y float64) uint8 {
	if math.IsNaN(x) || math.IsNaN(y) {
		return 0
	}
	if math.IsNaN(x * y) {
		return FFlagNV // 0 × inf
	}
	if math.IsInf(x, 0) || math.IsInf(y, 0) {
		return 0
	}
	z := bfloat(x)
	z.Mul(z, bfloat(y))
	return flags64(z)
}

func mul32(x, y float32) uint8 {
	if isNaN32(x) || isNaN32(y) {
		return 0
	}
	if isNaN32(x * y) {
		return FFlagNV
	}
	if isInf32(x) || isInf32(y) {
		return 0
	}
	z := bfloat(float64(x))
	z.Mul(z, bfloat(float64(y)))
	return flags32(z)
}

// div exactness: a finite quotient is exact iff r·y == x in real arithmetic
// (an exact binary quotient always fits the result format's mantissa), which
// sidesteps any reliance on big.Float.Quo accuracy reporting.
func div64(x, y float64) uint8 {
	if math.IsNaN(x) || math.IsNaN(y) {
		return 0
	}
	r := x / y
	if math.IsNaN(r) {
		return FFlagNV // 0/0 or inf/inf
	}
	if y == 0 {
		return FFlagDZ
	}
	if math.IsInf(x, 0) || math.IsInf(y, 0) {
		return 0
	}
	if math.IsInf(r, 0) {
		return FFlagOF | FFlagNX
	}
	z := bfloat(r)
	z.Mul(z, bfloat(y))
	if z.Cmp(bfloat(x)) == 0 {
		return 0
	}
	fl := FFlagNX
	if r == 0 || math.Abs(r) < 0x1p-1022 {
		fl |= FFlagUF
	}
	return fl
}

func div32(x, y float32) uint8 {
	if isNaN32(x) || isNaN32(y) {
		return 0
	}
	r := x / y
	if isNaN32(r) {
		return FFlagNV
	}
	if y == 0 {
		return FFlagDZ
	}
	if isInf32(x) || isInf32(y) {
		return 0
	}
	if isInf32(r) {
		return FFlagOF | FFlagNX
	}
	z := bfloat(float64(r))
	z.Mul(z, bfloat(float64(y)))
	if z.Cmp(bfloat(float64(x))) == 0 {
		return 0
	}
	fl := FFlagNX
	if r == 0 || abs32(r) < 0x1p-126 {
		fl |= FFlagUF
	}
	return fl
}

// sqrt exactness: r is exact iff r² == x in real arithmetic (an exact square
// root has at most half the mantissa bits, so its square is representable).
func sqrt64(x float64) uint8 {
	if math.IsNaN(x) {
		return 0
	}
	if x < 0 {
		return FFlagNV
	}
	if x == 0 || math.IsInf(x, 1) {
		return 0
	}
	z := bfloat(math.Sqrt(x))
	z.Mul(z, z)
	if z.Cmp(bfloat(x)) == 0 {
		return 0
	}
	return FFlagNX
}

func sqrt32(x float32) uint8 {
	if isNaN32(x) {
		return 0
	}
	if x < 0 {
		return FFlagNV
	}
	if x == 0 || isInf32(x) {
		return 0
	}
	z := bfloat(float64(float32(math.Sqrt(float64(x)))))
	z.Mul(z, z)
	if z.Cmp(bfloat(float64(x))) == 0 {
		return 0
	}
	return FFlagNX
}

func fma64(x, y, w float64, sub bool) uint8 {
	if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(w) {
		return 0
	}
	if sub {
		w = -w
	}
	if math.IsNaN(math.FMA(x, y, w)) {
		return FFlagNV // inf × 0, or an infinite product cancelling w
	}
	if math.IsInf(x, 0) || math.IsInf(y, 0) || math.IsInf(w, 0) {
		return 0
	}
	z := bfloat(x)
	z.Mul(z, bfloat(y))
	z.Add(z, bfloat(w))
	return flags64(z)
}

func fma32(x, y, w float32, sub bool) uint8 {
	if isNaN32(x) || isNaN32(y) || isNaN32(w) {
		return 0
	}
	if sub {
		w = -w
	}
	if isNaN32(float32(math.FMA(float64(x), float64(y), float64(w)))) {
		return FFlagNV
	}
	if isInf32(x) || isInf32(y) || isInf32(w) {
		return 0
	}
	z := bfloat(float64(x))
	z.Mul(z, bfloat(float64(y)))
	z.Add(z, bfloat(float64(w)))
	return flags32(z)
}

// cvtIntFlags computes fflags for a float→int conversion truncating toward
// zero into [lo, hi): NV when the truncated value falls outside the target
// range (or the input is NaN), NX when truncation discards a fraction.
func cvtIntFlags(f, lo, hi float64) uint8 {
	if math.IsNaN(f) {
		return FFlagNV
	}
	t := math.Trunc(f)
	if t >= hi || t < lo {
		return FFlagNV
	}
	if t != f {
		return FFlagNX
	}
	return 0
}
