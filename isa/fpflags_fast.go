package isa

import "math"

// The allocation-free path for the flags of add, subtract, multiply, fused
// multiply-add, divide and square root, in both widths. It computes the rounding error of the
// operation with error-free transformations — sequences of ordinary
// floating-point operations whose result is provably the exact error — and
// raises NX when that error is not zero. Each helper first checks that its
// operands are in the range where the proof holds and reports ok=false
// otherwise, which sends the case to fpuFlagsBig; the two agree on every
// input (TestFPFlagsFastMatchesBig), so where the boundary sits changes speed
// only.
//
// The range conditions, for double precision:
//
//   - every operand is finite (NaN and infinity go to the reference, which
//     also owns NV);
//   - nothing can overflow inside the transformation: operands of an addition
//     are below 2^1022, and the product and addend of an fma below 2^1021;
//   - the error term is representable: a product's error x·y − fl(x·y) is a
//     multiple of 2^(ex+ey−104) and so needs ex+ey ≥ −970, which
//     |fl(x·y)| ≥ 2^-968 guarantees. A sum's error always is (two doubles
//     are multiples of 2^-1074, and so is everything TwoSum computes).
//
// Inside that range UF never has to be considered. An addition cannot raise
// it at all: a sum of two doubles is a multiple of 2^-1074, so a sum below
// the normal range is representable, hence exact, and UF needs NX. The same
// holds for an fma whose product error is representable. A multiplication in
// range has a normal result.
//
// Single precision needs no range for the transformation itself — float32
// operands and their products are exact in float64 and far from its limits —
// so the exact result is held as a double s plus a TwoSum error e. With e = 0
// the flags follow from rounding s to float32. With e ≠ 0 the exact result
// needs more than 53 bits, so it is inexact in float32 too, and only whether
// float32 rounding overflows or lands below the normal range is open; that is
// settled when s is at least a binade away from both ends, else the case goes
// to the reference.
//
// Division and square root are decided the way the reference decides them: a
// finite quotient r = fl(x/y) is exact iff r·y = x, a square root
// r = fl(√x) iff r·r = x. In single precision both sides are exact in
// float64 (24-bit by 24-bit products, far inside its range), so that compare
// needs no range at all. In double precision the residual r·y − x (r·r − x) is
// one fma, and it is zero exactly when the exact residual is, provided a
// nonzero exact residual cannot round to zero: x is a multiple of 2^-1074, so
// the residual is whenever the product r·y is, which holds when the weights
// of the last mantissa bits of r and y sum to at least −1074 (the lsb of a
// double with biased exponent b weighs 2^(max(b,1)−1075)). For a square root
// that is r ≥ 2^-485, which holds for x ≥ 2^-970. The residual cannot
// overflow: it is at most about 2^-52·|x|, or 2^-51 when r is subnormal.
// The flags then follow the reference: NX when inexact, OF|NX for an
// infinite quotient of finite operands, UF with NX when the quotient is zero
// or below the normal range, NV for the square root of a negative number. A
// zero divisor goes to the reference, which answers DZ or NV without math/big.

const (
	expMask64  = 0x7FF
	expBig1022 = 1022 + 1023 // biased exponent of 2^1022
	expBig1021 = 1021 + 1023
)

// Products below are written float64(x * y): the explicit conversion rounds,
// which keeps a compiler that fuses multiply-adds (arm64, ppc64, s390x,
// riscv64) from merging the product into a later addition.

func biasedExp64(v float64) uint64 { return math.Float64bits(v) >> 52 & expMask64 }

func finite32(v float32) bool { return v == v && !isInf32(v) }

// twoSum returns s = fl(x+y) and e with s+e = x+y exactly (Knuth). The caller
// guarantees that x+y cannot overflow.
func twoSum(x, y float64) (s, e float64) {
	s = x + y
	bb := s - x
	e = (x - (s - bb)) + (y - bb)
	return s, e
}

// fpuFlagsFast is fpuFlags for the cases it can prove; ok=false means "ask
// fpuFlagsBig". No operand is a NaN when ok is true, so NV is due only for
// the square root of a negative number.
func fpuFlagsFast(op Op, a, b, c uint64) (flags uint8, ok bool) {
	switch op {
	case FDIVD:
		return div64Fast(math.Float64frombits(a), math.Float64frombits(b))
	case FSQRTD:
		return sqrt64Fast(math.Float64frombits(a))
	case FDIVS:
		return div32Fast(UnboxF32(a), UnboxF32(b))
	case FSQRTS:
		return sqrt32Fast(UnboxF32(a))
	case FADDD:
		return add64Fast(math.Float64frombits(a), math.Float64frombits(b))
	case FSUBD:
		return add64Fast(math.Float64frombits(a), -math.Float64frombits(b))
	case FMULD:
		return mul64Fast(math.Float64frombits(a), math.Float64frombits(b))
	case FMADDD:
		return fma64Fast(math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c))
	case FMSUBD:
		return fma64Fast(math.Float64frombits(a), math.Float64frombits(b), -math.Float64frombits(c))
	case FADDS, FSUBS, FMULS:
		x, y := UnboxF32(a), UnboxF32(b)
		if !finite32(x) || !finite32(y) {
			return 0, false
		}
		switch op {
		case FADDS:
			return sum32Fast(float64(x), float64(y))
		case FSUBS:
			return sum32Fast(float64(x), -float64(y))
		}
		return flags32Exact(float64(x) * float64(y)), true
	case FMADDS, FMSUBS:
		x, y, w := UnboxF32(a), UnboxF32(b), UnboxF32(c)
		if !finite32(x) || !finite32(y) || !finite32(w) {
			return 0, false
		}
		if op == FMSUBS {
			w = -w
		}
		return sum32Fast(float64(float64(x)*float64(y)), float64(w))
	}
	return 0, false
}

func add64Fast(x, y float64) (uint8, bool) {
	if biasedExp64(x) >= expBig1022 || biasedExp64(y) >= expBig1022 {
		return 0, false
	}
	if _, e := twoSum(x, y); e != 0 {
		return FFlagNX, true
	}
	return 0, true
}

func mul64Fast(x, y float64) (uint8, bool) {
	if biasedExp64(x) == expMask64 || biasedExp64(y) == expMask64 {
		return 0, false
	}
	if x == 0 || y == 0 {
		return 0, true
	}
	p := float64(x * y)
	switch ap := math.Abs(p); {
	case ap > math.MaxFloat64:
		return FFlagOF | FFlagNX, true // finite operands, infinite product
	case ap < 0x1p-968:
		return 0, false
	}
	if math.FMA(x, y, -p) != 0 {
		return FFlagNX, true
	}
	return 0, true
}

// fma64Fast decides whether fl(x·y+w) is exact with Boldo and Muller's
// ErrFmaNearest ("Exact and approximated error of the FMA", IEEE TC 2011):
// the error of the fma is r2+r3 with r2 = fl(γ+α2) below, and r2 = 0 exactly
// when the error is 0.
func fma64Fast(x, y, w float64) (uint8, bool) {
	if biasedExp64(x) == expMask64 || biasedExp64(y) == expMask64 || biasedExp64(w) >= expBig1021 {
		return 0, false
	}
	if x == 0 || y == 0 {
		return 0, true // the result is w
	}
	u1 := float64(x * y)
	if au := math.Abs(u1); au < 0x1p-968 || au >= 0x1p1021 {
		return 0, false
	}
	r1 := math.FMA(x, y, w)
	u2 := math.FMA(x, y, -u1)
	a1, a2 := twoSum(w, u2)
	b1, b2 := twoSum(u1, a1)
	g := (b1 - r1) + b2
	if g+a2 != 0 {
		return FFlagNX, true
	}
	return 0, true
}

// sum32Fast returns the flags of rounding x+y to float32, for x and y each a
// float32 value or an exact product of two.
func sum32Fast(x, y float64) (uint8, bool) {
	s, e := twoSum(x, y)
	if e == 0 {
		return flags32Exact(s), true
	}
	if as := math.Abs(s); as >= 0x1p-125 && as < 0x1p127 {
		return FFlagNX, true
	}
	return 0, false
}

// flags32Exact derives NX/OF/UF for the exact finite result s rounded to
// float32, by the same rules as flags32.
func flags32Exact(s float64) uint8 {
	if math.Abs(s) >= 0x1.ffffffp127 {
		return FFlagOF | FFlagNX // at or above the midpoint between MaxFloat32 and 2^128
	}
	r := float32(s)
	if float64(r) == s {
		return 0
	}
	if r == 0 || abs32(r) < 0x1p-126 {
		return FFlagNX | FFlagUF
	}
	return FFlagNX
}

// lsbExp64 is the exponent of the weight of v's last mantissa bit.
func lsbExp64(v float64) int { return max(int(biasedExp64(v)), 1) - 1075 }

func div64Fast(x, y float64) (uint8, bool) {
	if biasedExp64(x) == expMask64 || biasedExp64(y) == expMask64 || y == 0 {
		return 0, false
	}
	if x == 0 {
		return 0, true
	}
	r := x / y
	if math.IsInf(r, 0) {
		return FFlagOF | FFlagNX, true
	}
	if lsbExp64(r)+lsbExp64(y) < -1074 {
		return 0, false
	}
	if math.FMA(r, y, -x) == 0 {
		return 0, true
	}
	if r == 0 || math.Abs(r) < 0x1p-1022 {
		return FFlagNX | FFlagUF, true
	}
	return FFlagNX, true
}

func sqrt64Fast(x float64) (uint8, bool) {
	switch {
	case biasedExp64(x) == expMask64:
		return 0, false
	case x == 0:
		return 0, true
	case x < 0:
		return FFlagNV, true
	}
	r := math.Sqrt(x)
	if r < 0x1p-485 {
		return 0, false
	}
	if math.FMA(r, r, -x) == 0 {
		return 0, true
	}
	return FFlagNX, true
}

func div32Fast(x, y float32) (uint8, bool) {
	if !finite32(x) || !finite32(y) || y == 0 {
		return 0, false
	}
	r := x / y
	switch {
	case isInf32(r):
		return FFlagOF | FFlagNX, true
	case float64(r)*float64(y) == float64(x):
		return 0, true
	case r == 0 || abs32(r) < 0x1p-126:
		return FFlagNX | FFlagUF, true
	}
	return FFlagNX, true
}

func sqrt32Fast(x float32) (uint8, bool) {
	switch {
	case !finite32(x):
		return 0, false
	case x < 0:
		return FFlagNV, true
	}
	r := float64(float32(math.Sqrt(float64(x))))
	if r*r == float64(x) {
		return 0, true
	}
	return FFlagNX, true
}
