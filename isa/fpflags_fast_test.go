package isa

import (
	"math"
	"math/rand"
	"testing"
)

var fastFlagOps = []Op{
	FADDD, FSUBD, FMULD, FMADDD, FMSUBD, FDIVD, FSQRTD,
	FADDS, FSUBS, FMULS, FMADDS, FMSUBS, FDIVS, FSQRTS,
}

func isSingleOp(op Op) bool {
	switch op {
	case FADDS, FSUBS, FMULS, FMADDS, FMSUBS, FDIVS, FSQRTS:
		return true
	}
	return false
}

// checkFlagsAgree is the whole contract of the fast path: whatever it answers
// is what the math/big reference answers, and what it declines the dispatcher
// hands to the reference.
func checkFlagsAgree(t *testing.T, op Op, a, b, c uint64) {
	t.Helper()
	want := fpuFlagsBig(op, a, b, c)
	if fl, ok := fpuFlagsFast(op, a, b, c); ok && fl != want {
		t.Fatalf("%v(%#x, %#x, %#x): fast path says %05b, reference %05b", op, a, b, c, fl, want)
	}
	if got := fpuFlags(op, a, b, c); got != want {
		t.Fatalf("%v(%#x, %#x, %#x): fpuFlags %05b, reference %05b", op, a, b, c, got, want)
	}
}

// directed64 are the doubles where flags change: zeros, both ends of the
// subnormal range, the fast path's own range boundaries, the overflow
// threshold, ties, values 2^±1000 apart, and the non-finite ones.
var directed64 = []float64{
	0, math.Copysign(0, -1), 1, -1, 1.5, 3, 0.1,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
	0x1p-1022, 0x1p-1022 - 0x1p-1074, 0x1.8p-1022, 0x1p-1023, -0x1p-1022,
	0x1p-968, 0x1.fffffffffffffp-969, 0x1p-969, 0x1p-484, 0x1.0000000000001p-484, 0x1p-485,
	0x1p-537, 0x1.8p-538, 0x1p-1000, 0x1.123456789abcdp-1000,
	1 + 0x1p-52, 1 - 0x1p-53, 0x1p-53, 0x1p-54, 0x1.8p-53, 0x1p53, 0x1p53 + 2, 0x1p52 + 1,
	0x1p1000, -0x1p1000, 0x1.fffffffffffffp999,
	0x1p1021, 0x1.fffffffffffffp1020, 0x1p1022, 0x1.fffffffffffffp1021, 0x1p1023,
	math.MaxFloat64, -math.MaxFloat64, 0x1p511, 0x1p512, 0x1.6a09e667f3bcdp511,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

var directed32 = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1, 1.5, 3, 0.1,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 3 * math.SmallestNonzeroFloat32,
	0x1p-126, 0x1p-126 - 0x1p-149, 0x1.8p-126, 0x1p-127, 0x1p-125, 0x1.fffffep-126,
	0x1p-63, 0x1.000002p-63, 0x1p-64, 0x1p-75, 0x1.8p-75, 0x1p-100,
	1 + 0x1p-23, 1 - 0x1p-24, 0x1p-24, 0x1p-25, 0x1.8p-24, 0x1p24, 0x1p24 + 2, 0x1p23 + 1,
	0x1p100, -0x1p100, 0x1p127, 0x1.fffffep126, 0x1p103, 0x1p103 - 0x1p79, 0x1p104,
	math.MaxFloat32, -math.MaxFloat32, 0x1p63, 0x1p64, 0x1.6a09e6p63,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

func TestFPFlagsFastDirected(t *testing.T) {
	regs64 := []uint64{sNaN64, qNaN64 | 1}
	for _, v := range directed64 {
		regs64 = append(regs64, F64(v))
	}
	regs32 := []uint64{sNaN32(), qNaN32(), 0x3F800000, 0x7FFFFFFF3F800000} // the last two: improperly boxed
	for _, v := range directed32 {
		regs32 = append(regs32, F32(v))
	}
	for _, op := range fastFlagOps {
		regs := regs64
		if isSingleOp(op) {
			regs = regs32
		}
		threeSrc := op == FMADDD || op == FMSUBD || op == FMADDS || op == FMSUBS
		for _, a := range regs {
			for _, b := range regs {
				if !threeSrc {
					checkFlagsAgree(t, op, a, b, 0)
					continue
				}
				for _, c := range regs {
					checkFlagsAgree(t, op, a, b, c)
				}
			}
		}
	}
}

// operandGen draws operand bit patterns three ways: raw bits (exponents
// hundreds of binades apart: the absorbed-operand and far-out-of-range
// cases), exponents clustered round a shared base with short mantissas
// (cancellation, exact sums and products, ties), and the directed values.
type operandGen struct {
	rng    *rand.Rand
	single bool
	base   int
}

func (g *operandGen) next() uint64 {
	switch k := g.rng.Intn(16); {
	case k < 5:
		if g.single {
			return BoxF32(g.rng.Uint32())
		}
		return g.rng.Uint64()
	case k == 5:
		if g.single {
			return F32(directed32[g.rng.Intn(len(directed32))])
		}
		return F64(directed64[g.rng.Intn(len(directed64))])
	}
	mantBits, expBits, bias := 52, 11, 1023
	if g.single {
		mantBits, expBits, bias = 23, 8, 127
	}
	mant := g.rng.Uint64() & (1<<mantBits - 1)
	mant &^= 1<<g.rng.Intn(mantBits+1) - 1 // clear a random run of low bits
	exp := g.base + g.rng.Intn(61) - 30 + bias
	if exp < 0 {
		exp = 0
	}
	if max := 1<<expBits - 2; exp > max {
		exp = max
	}
	sign := uint64(g.rng.Intn(2))
	if g.single {
		return BoxF32(uint32(sign<<31 | uint64(exp)<<23 | mant))
	}
	return sign<<63 | uint64(exp)<<52 | mant
}

// rebase picks the exponent neighbourhood of the next operand tuple, anywhere
// from the bottom of the subnormal range to the overflow threshold.
func (g *operandGen) rebase() {
	if g.single {
		g.base = g.rng.Intn(300) - 160
		return
	}
	g.base = g.rng.Intn(2140) - 1080
}

// TestFPFlagsFastMatchesBig is the differential test: a million seeded
// operand tuples per operation (fewer with -short), fast path against the
// math/big reference.
func TestFPFlagsFastMatchesBig(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 20_000
	}
	for i, op := range fastFlagOps {
		op := op
		seed := int64(1000 + i)
		t.Run(op.String(), func(t *testing.T) {
			t.Parallel()
			g := &operandGen{rng: rand.New(rand.NewSource(seed)), single: isSingleOp(op)}
			taken := 0
			for j := 0; j < n; j++ {
				g.rebase()
				a, b, c := g.next(), g.next(), g.next()
				checkFlagsAgree(t, op, a, b, c)
				if _, ok := fpuFlagsFast(op, a, b, c); ok {
					taken++
				}
			}
			// the comparison means little if nearly everything fell back
			if taken < n/2 {
				t.Fatalf("fast path took only %d of %d cases", taken, n)
			}
		})
	}
}

// TestFPFlagsFastRangePredicate pins which side of the range predicate known
// cases fall on: everything the error-free transformations cannot prove must
// be declined, and ordinary operands must not be.
func TestFPFlagsFastRangePredicate(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name    string
		op      Op
		a, b, c uint64
		fast    bool
	}{
		{"add ordinary", FADDD, F64(1), F64(0x1p-60), 0, true},
		{"add subnormals", FADDD, F64(0x1p-1074), F64(-0x1p-1040), 0, true},
		{"add below 2^1022", FADDD, F64(0x1.fffffffffffffp1021), F64(1), 0, true},
		{"add at 2^1022", FADDD, F64(0x1p1022), F64(1), 0, false},
		{"sub at 2^1022", FSUBD, F64(1), F64(-0x1p1022), 0, false},
		{"add inf", FADDD, F64(inf), F64(1), 0, false},
		{"add nan", FADDD, F64(1), F64(nan), 0, false},
		{"add snan", FADDD, sNaN64, F64(1), 0, false},
		{"mul ordinary", FMULD, F64(3), F64(0.1), 0, true},
		{"mul by zero", FMULD, F64(0), F64(0x1p-1074), 0, true},
		{"mul overflow", FMULD, F64(0x1p1000), F64(0x1p1000), 0, true},
		{"mul at 2^-968", FMULD, F64(0x1p-484), F64(0x1p-484), 0, true},
		{"mul below 2^-968", FMULD, F64(0x1.fffffffffffffp-485), F64(0x1p-484), 0, false},
		{"mul subnormal result", FMULD, F64(0x1p-1000), F64(0x1p-60), 0, false},
		{"mul underflow to zero", FMULD, F64(0x1p-1000), F64(0x1p-1000), 0, false},
		{"mul inf", FMULD, F64(inf), F64(0), 0, false},
		{"fma ordinary", FMADDD, F64(3), F64(0.1), F64(7), true},
		{"fma zero factor", FMADDD, F64(0), F64(0x1p-1074), F64(0x1p1020), true},
		{"fma small product", FMADDD, F64(0x1p-500), F64(0x1p-500), F64(1), false},
		{"fma big product", FMADDD, F64(0x1p511), F64(0x1p510), F64(1), false},
		{"fma big addend", FMSUBD, F64(3), F64(5), F64(0x1p1021), false},
		{"fma inf addend", FMADDD, F64(3), F64(5), F64(inf), false},
		{"fma nan factor", FMADDD, F64(nan), F64(5), F64(1), false},
		{"add.s ordinary", FADDS, F32(1), F32(0x1p-30), 0, true},
		{"add.s overflow, exact in double", FADDS, F32(math.MaxFloat32), F32(math.MaxFloat32), 0, true},
		{"add.s unboxed", FADDS, 0x3F800000, F32(1), 0, false},
		{"add.s inf", FADDS, F32(float32(inf)), F32(1), 0, false},
		{"mul.s subnormal result", FMULS, F32(0x1p-100), F32(0x1.8p-40), 0, true},
		{"fmadd.s ordinary", FMADDS, F32(3), F32(0.1), F32(7), true},
		{"fmadd.s inexact in double near overflow", FMADDS, F32(math.MaxFloat32), F32(1), F32(0x1p-149), false},
		{"fmadd.s inexact in double near underflow", FMADDS, F32(0x1.fffffep-91), F32(0x1.fffffep-91), F32(0x1p-126), false},
		{"fmsub.s snan", FMSUBS, F32(1), F32(1), sNaN32(), false},
		{"div ordinary", FDIVD, F64(1), F64(3), 0, true},
		{"div by zero", FDIVD, F64(1), F64(0), 0, false},
		{"div zero by zero", FDIVD, F64(0), F64(0), 0, false},
		{"div overflow", FDIVD, F64(0x1p1000), F64(0x1p-100), 0, true},
		{"div subnormal quotient", FDIVD, F64(0x1p-1000), F64(0x1.8p100), 0, true},
		{"div small quotient and divisor", FDIVD, F64(0x1p-1000), F64(0x1p-30), 0, false},
		{"div small dividend", FDIVD, F64(0x1p-1000), F64(3), 0, false},
		{"div inf", FDIVD, F64(inf), F64(3), 0, false},
		{"div nan", FDIVD, F64(1), F64(nan), 0, false},
		{"sqrt ordinary", FSQRTD, F64(2), 0, 0, true},
		{"sqrt negative", FSQRTD, F64(-2), 0, 0, true},
		{"sqrt at 2^-970", FSQRTD, F64(0x1p-970), 0, 0, true},
		{"sqrt below 2^-970", FSQRTD, F64(0x1p-972), 0, 0, false},
		{"sqrt inf", FSQRTD, F64(inf), 0, 0, false},
		{"div.s subnormal quotient", FDIVS, F32(0x1p-120), F32(0x1.8p20), 0, true},
		{"div.s by zero", FDIVS, F32(1), F32(0), 0, false},
		{"div.s unboxed", FDIVS, 0x3F800000, F32(1), 0, false},
		{"sqrt.s subnormal", FSQRTS, F32(0x1p-149), 0, 0, true},
		{"sqrt.s nan", FSQRTS, F32(float32(nan)), 0, 0, false},
	} {
		if _, ok := fpuFlagsFast(tc.op, tc.a, tc.b, tc.c); ok != tc.fast {
			t.Errorf("%s: fast path taken=%v, want %v", tc.name, ok, tc.fast)
		}
		checkFlagsAgree(t, tc.op, tc.a, tc.b, tc.c)
	}
}

// TestFPFlagsFastNoAllocs: the fast path exists so that a kernel's fadd.d /
// fmul.d / fmadd.d / fdiv.d / fsqrt.d, and their single-precision twins, stop
// allocating math/big floats.
func TestFPFlagsFastNoAllocs(t *testing.T) {
	var sink uint8
	if n := testing.AllocsPerRun(100, func() {
		for _, op := range fastFlagOps {
			a, b, c := F64(3), F64(0.1), F64(7)
			if isSingleOp(op) {
				a, b, c = F32(3), F32(0.1), F32(7)
			}
			_, fl, _ := EvalFPUFlags(op, a, b, c)
			sink |= fl
		}
	}); n != 0 {
		t.Fatalf("%v allocations per pass over the fast-path ops", n)
	}
	_ = sink
}
