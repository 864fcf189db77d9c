package workloads

import (
	"fmt"
	"strconv"
	"strings"
)

// The AI kernels reproduce the §X vector claim: "the Cortex-A73 supports 8X
// 16-bit-MAC operation, and the computing power of XT-910 is 16X 16-bit MACs"
// plus fp16 support the A73 lacks. The dot-product kernel is provided in a
// scalar form, a vector int16 widening-MAC form, and a vector fp16 form.

// aiN is the dot-product length (int16 elements).
const aiN = 2048

// AIDotScalar is the scalar int16 dot product baseline.
var AIDotScalar = Workload{
	Name:         "ai-dot-scalar",
	DefaultIters: 30,
	Gen:          genAIDotScalar,
}

// AIDotVector is the vector int16 dot product using vwmacc (16 MACs/cycle
// across the two 64-bit slices at e16).
var AIDotVector = Workload{
	Name:         "ai-dot-vector",
	DefaultIters: 30,
	Gen:          genAIDotVector,
}

// AIDotFP16 is the half-precision vector dot product (unsupported on the
// A73-class comparison machine).
var AIDotFP16 = Workload{
	Name:         "ai-dot-fp16",
	DefaultIters: 30,
	Gen:          genAIDotFP16,
}

func aiData() string {
	var b strings.Builder
	b.WriteString("\n.align 4\nvec_x:\n")
	for i := 0; i < aiN; i++ {
		halfLine(&b, (i*37+11)%251-125)
	}
	b.WriteString("vec_w:\n")
	for i := 0; i < aiN; i++ {
		halfLine(&b, (i*91+43)%199-99)
	}
	return b.String()
}

// halfLine writes one ".half v" directive line.
func halfLine(b *strings.Builder, v int) {
	var num [20]byte
	b.WriteString("    .half ")
	b.Write(strconv.AppendInt(num[:0], int64(v), 10))
	b.WriteByte('\n')
}

func genAIDotScalar(iters int) string {
	return header(iters) + fmt.Sprintf(`
.equ N, %d
main_loop:
    la   a2, vec_x
    la   a3, vec_w
    li   a4, N
    li   t0, 0
dot:
    lh   a5, 0(a2)
    lh   a6, 0(a3)
    mul  a5, a5, a6
    add  t0, t0, a5
    addi a2, a2, 2
    addi a3, a3, 2
    addi a4, a4, -1
    bnez a4, dot
`, aiN) + mix + `
    addi s11, s11, -1
    bnez s11, main_loop
` + exit + aiData()
}

func genAIDotVector(iters int) string {
	return header(iters) + fmt.Sprintf(`
.equ N, %d
main_loop:
    la   a2, vec_x
    la   a3, vec_w
    li   a4, N
    li   t0, 0
    # zero the widened accumulator group once (e32, m4 = v4..v7)
    li   t3, 16
    vsetvli t3, t3, e32, m4
    vmv.v.x v4, zero
vdot:
    vsetvli t2, a4, e16, m2      # 16 int16 lanes per op
    vle.v  v0, (a2)
    vle.v  v2, (a3)
    vwmacc.vv v4, v0, v2         # accumulate across the whole loop
    slli t3, t2, 1
    add  a2, a2, t3
    add  a3, a3, t3
    sub  a4, a4, t2
    bnez a4, vdot
    # single reduction at the end (e32 over the m4 group)
    li   t3, 16
    vsetvli t3, t3, e32, m4
    vmv.s.x v8, zero
    vredsum.vs v12, v4, v8
    vmv.x.s t4, v12
    add  t0, t0, t4
`, aiN) + mix + `
    addi s11, s11, -1
    bnez s11, main_loop
` + exit + aiData()
}

func genAIDotFP16(iters int) string {
	var b strings.Builder
	b.WriteString(header(iters))
	b.WriteString(fmt.Sprintf(`
.equ N, %d
main_loop:
    la   a2, hvec_x
    la   a3, hvec_w
    li   a4, N
    li   t0, 0
    li   t3, 16
    vsetvli t3, t3, e16, m2
    vmv.v.x v4, zero             # fp16 accumulator group
hdot:
    vsetvli t2, a4, e16, m2
    vle.v  v0, (a2)
    vle.v  v2, (a3)
    vfmacc.vv v4, v0, v2         # fp16 fused MACs, accumulated across the loop
    slli t3, t2, 1
    add  a2, a2, t3
    add  a3, a3, t3
    sub  a4, a4, t2
    bnez a4, hdot
    # single horizontal reduce at the end
    li   t3, 16
    vsetvli t3, t3, e16, m2
    vmv.s.x v8, zero
    vfredsum.vs v12, v4, v8
    vmv.x.s t4, v12
    li   t5, 0xFFFF
    and  t4, t4, t5
    add  t0, t0, t4              # checksum over raw fp16 bits
`, 512))
	b.WriteString(mix + `
    addi s11, s11, -1
    bnez s11, main_loop
` + exit)
	b.WriteString("\n.align 4\nhvec_x:\n")
	for i := 0; i < 512; i++ {
		b.WriteString(fmt.Sprintf("    .half 0x%04x\n", fp16Of(float32(i%13)*0.25-1.5)))
	}
	b.WriteString("hvec_w:\n")
	for i := 0; i < 512; i++ {
		b.WriteString(fmt.Sprintf("    .half 0x%04x\n", fp16Of(float32(i%7)*0.125-0.375)))
	}
	return b.String()
}

// fp16Of converts to IEEE binary16 (mirrors internal/vector's conversion; a
// local copy keeps this package free of simulator imports).
func fp16Of(f float32) uint16 {
	// only small exact values are used, so truncation is fine here
	switch {
	case f == 0:
		return 0
	}
	sign := uint16(0)
	if f < 0 {
		sign = 0x8000
		f = -f
	}
	exp := 15
	for f >= 2 {
		f /= 2
		exp++
	}
	for f < 1 {
		f *= 2
		exp--
	}
	frac := uint16((f - 1) * 1024)
	return sign | uint16(exp)<<10 | frac
}
