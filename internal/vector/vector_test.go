package vector

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"xt910/isa"
)

func TestFp16RoundTripExact(t *testing.T) {
	// every finite fp16 value must survive f16 -> f32 -> f16
	for h := 0; h < 1<<16; h++ {
		f := F16ToF32(uint16(h))
		if math.IsNaN(float64(f)) {
			continue
		}
		back := F32ToF16(f)
		if back != uint16(h) {
			t.Fatalf("fp16 %04x -> %v -> %04x", h, f, back)
		}
	}
}

func TestFp16KnownValues(t *testing.T) {
	cases := []struct {
		bits uint16
		val  float32
	}{
		{0x3C00, 1.0}, {0xC000, -2.0}, {0x3555, 0.333251953125},
		{0x7C00, float32(math.Inf(1))}, {0x0001, 5.960464477539063e-08},
	}
	for _, c := range cases {
		if got := F16ToF32(c.bits); got != c.val {
			t.Errorf("F16ToF32(%04x) = %v, want %v", c.bits, got, c.val)
		}
	}
	if AddF16(0x3C00, 0x3C00) != 0x4000 { // 1+1=2
		t.Error("1+1 != 2 in fp16")
	}
	if MulF16(0x4000, 0x4200) != 0x4600 { // 2*3=6
		t.Error("2*3 != 6 in fp16")
	}
}

func TestFp16RoundToNearestEven(t *testing.T) {
	f := func(a, b uint16) bool {
		// adding zero must be identity for normals
		fa := F16ToF32(a &^ 0x8000 & 0x7BFF) // clear sign, avoid inf/nan
		return F32ToF16(fa) == a&^0x8000&0x7BFF || math.IsNaN(float64(fa))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestSetVLClamping(t *testing.T) {
	u := NewUnit()
	if vl := u.SetVL(100, isa.MakeVType(isa.SEW32, 0)); vl != 4 {
		t.Fatalf("e32,m1 VLMAX = 4, got %d", vl)
	}
	if vl := u.SetVL(1000, isa.MakeVType(isa.SEW8, 3)); vl != 128 {
		t.Fatalf("e8,m8 VLMAX = 128, got %d", vl)
	}
	if vl := u.SetVL(3, isa.MakeVType(isa.SEW16, 1)); vl != 3 {
		t.Fatalf("requests under VLMAX pass through, got %d", vl)
	}
}

func execVV(t *testing.T, u *Unit, op isa.Op, vd, vs2, vs1 int) {
	t.Helper()
	in := isa.NewInst(op)
	in.Rd, in.Rs1, in.Rs2 = isa.V(vd), isa.V(vs1), isa.V(vs2)
	if _, _, err := u.Exec(in, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntegerElementwise(t *testing.T) {
	u := NewUnit()
	u.SetVL(4, isa.MakeVType(isa.SEW32, 0))
	for i := 0; i < 4; i++ {
		u.File.setElem(1, i, 32, uint64(i+1))     // v1 = 1,2,3,4
		u.File.setElem(2, i, 32, uint64(10*i+10)) // v2 = 10,20,30,40
	}
	execVV(t, u, isa.VADDVV, 3, 1, 2) // v3 = v1 + v2 (vs2=v1, vs1=v2)
	for i := 0; i < 4; i++ {
		want := uint64(i+1) + uint64(10*i+10)
		if got := u.File.elem(3, i, 32); got != want {
			t.Fatalf("vadd elem %d = %d, want %d", i, got, want)
		}
	}
	execVV(t, u, isa.VMULVV, 4, 1, 2)
	if got := u.File.elem(4, 3, 32); got != 160 {
		t.Fatalf("vmul elem 3 = %d", got)
	}
	execVV(t, u, isa.VMAXVV, 5, 1, 2)
	if got := u.File.elem(5, 0, 32); got != 10 {
		t.Fatalf("vmax elem 0 = %d", got)
	}
}

func TestSignedSemantics(t *testing.T) {
	u := NewUnit()
	u.SetVL(2, isa.MakeVType(isa.SEW16, 0))
	u.File.setElem(1, 0, 16, 0xFFFF) // -1
	u.File.setElem(1, 1, 16, 0x8000) // -32768
	u.File.setElem(2, 0, 16, 2)
	u.File.setElem(2, 1, 16, 2)
	execVV(t, u, isa.VMULVV, 3, 1, 2)
	if got := int16(u.File.elem(3, 0, 16)); got != -2 {
		t.Fatalf("(-1)*2 = %d", got)
	}
	execVV(t, u, isa.VMINVV, 4, 1, 2)
	if got := int16(u.File.elem(4, 1, 16)); got != -32768 {
		t.Fatalf("min(-32768,2) = %d", got)
	}
	execVV(t, u, isa.VDIVVV, 5, 1, 2)
	if got := int16(u.File.elem(5, 1, 16)); got != -16384 {
		t.Fatalf("-32768/2 = %d", got)
	}
}

func TestWideningMAC16(t *testing.T) {
	// the §X AI claim: 16-bit MACs accumulate into 32-bit elements
	u := NewUnit()
	u.SetVL(8, isa.MakeVType(isa.SEW16, 0)) // 8 x int16 in one 128-bit reg
	for i := 0; i < 8; i++ {
		u.File.setElem(1, i, 16, uint64(i+1))
		u.File.setElem(2, i, 16, 1000)
	}
	in := isa.NewInst(isa.VWMACCVV)
	in.Rd, in.Rs1, in.Rs2 = isa.V(4), isa.V(1), isa.V(2)
	if _, _, err := u.Exec(in, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if got := u.File.elem(4, i, 32); got != uint64((i+1)*1000) {
			t.Fatalf("wmacc elem %d = %d", i, got)
		}
	}
}

func TestReduction(t *testing.T) {
	u := NewUnit()
	u.SetVL(4, isa.MakeVType(isa.SEW32, 0))
	for i := 0; i < 4; i++ {
		u.File.setElem(2, i, 32, uint64(i+1)) // 1..4
	}
	u.File.setElem(1, 0, 32, 100) // scalar seed
	in := isa.NewInst(isa.VREDSUMVS)
	in.Rd, in.Rs1, in.Rs2 = isa.V(3), isa.V(1), isa.V(2)
	if _, _, err := u.Exec(in, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := u.File.elem(3, 0, 32); got != 110 {
		t.Fatalf("redsum = %d, want 110", got)
	}
}

func TestFP32Elementwise(t *testing.T) {
	u := NewUnit()
	u.SetVL(4, isa.MakeVType(isa.SEW32, 0))
	for i := 0; i < 4; i++ {
		u.File.setElem(1, i, 32, uint64(math.Float32bits(float32(i)+0.5)))
		u.File.setElem(2, i, 32, uint64(math.Float32bits(2.0)))
	}
	execVV(t, u, isa.VFMULVV, 3, 1, 2)
	for i := 0; i < 4; i++ {
		got := math.Float32frombits(uint32(u.File.elem(3, i, 32)))
		if got != (float32(i)+0.5)*2 {
			t.Fatalf("vfmul elem %d = %v", i, got)
		}
	}
}

func TestFP16Elementwise(t *testing.T) {
	u := NewUnit()
	u.SetVL(8, isa.MakeVType(isa.SEW16, 0))
	for i := 0; i < 8; i++ {
		u.File.setElem(1, i, 16, uint64(F32ToF16(1.5)))
		u.File.setElem(2, i, 16, uint64(F32ToF16(2.0)))
	}
	execVV(t, u, isa.VFMULVV, 3, 1, 2)
	for i := 0; i < 8; i++ {
		if got := F16ToF32(uint16(u.File.elem(3, i, 16))); got != 3.0 {
			t.Fatalf("fp16 vfmul elem %d = %v", i, got)
		}
	}
}

func TestVectorLoadStore(t *testing.T) {
	u := NewUnit()
	u.SetVL(4, isa.MakeVType(isa.SEW32, 0))
	memory := map[uint64]uint64{}
	ld := func(addr uint64, size int) uint64 { return memory[addr] }
	st := func(addr uint64, size int, v uint64) { memory[addr] = v }
	for i := uint64(0); i < 4; i++ {
		memory[0x100+4*i] = i * 7
	}
	lin := isa.NewInst(isa.VLE)
	lin.Rd, lin.Rs1 = isa.V(1), isa.A0
	if _, _, err := u.Exec(lin, 0x100, ld, st); err != nil {
		t.Fatal(err)
	}
	sin := isa.NewInst(isa.VSE)
	sin.Rs2, sin.Rs1 = isa.V(1), isa.A1
	if _, _, err := u.Exec(sin, 0x200, ld, st); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		if memory[0x200+4*i] != i*7 {
			t.Fatalf("elem %d round trip failed", i)
		}
	}
}

func TestStridedLoad(t *testing.T) {
	u := NewUnit()
	u.SetVL(4, isa.MakeVType(isa.SEW32, 0))
	memory := map[uint64]uint64{}
	for i := uint64(0); i < 4; i++ {
		memory[0x100+16*i] = i + 1
	}
	ld := func(addr uint64, size int) uint64 { return memory[addr] }
	in := isa.NewInst(isa.VLSE)
	in.Rd, in.Rs1 = isa.V(2), isa.A0
	in.Imm = 16 // stride, pre-resolved by caller
	if _, _, err := u.Exec(in, 0x100, ld, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := u.File.elem(2, i, 32); got != uint64(i+1) {
			t.Fatalf("strided elem %d = %d", i, got)
		}
	}
}

func TestLMULGroupsSpanRegisters(t *testing.T) {
	u := NewUnit()
	u.SetVL(8, isa.MakeVType(isa.SEW32, 1)) // e32,m2: 8 elements across v2,v3
	for i := 0; i < 8; i++ {
		u.File.setElem(2, i, 32, uint64(i))
	}
	// element 4 must land in the second register of the group
	if got := u.File.elem(3, 0, 32); got != 4 {
		t.Fatalf("element 4 should be v3[0], got %d", got)
	}
}

func TestOccupancyAndMemCycles(t *testing.T) {
	if OccupancyCycles(isa.MakeVType(isa.SEW32, 0)) != 1 {
		t.Fatal("m1 occupies 1 cycle")
	}
	if OccupancyCycles(isa.MakeVType(isa.SEW32, 3)) != 8 {
		t.Fatal("m8 occupies 8 cycles")
	}
	if MemCycles(4, isa.MakeVType(isa.SEW32, 0)) != 1 {
		t.Fatal("128 bits move in 1 cycle")
	}
	if MemCycles(8, isa.MakeVType(isa.SEW32, 1)) != 2 {
		t.Fatal("256 bits move in 2 cycles")
	}
}

func TestFileCloneEqual(t *testing.T) {
	u := NewUnit()
	rng := rand.New(rand.NewSource(5))
	for r := 0; r < 32; r++ {
		for b := 0; b < 16; b++ {
			u.File.Bytes(r)[b] = byte(rng.Intn(256))
		}
	}
	c := u.File.Clone()
	if !u.File.Equal(c) {
		t.Fatal("clone must be equal")
	}
	c.Bytes(7)[3] ^= 1
	if u.File.Equal(c) {
		t.Fatal("mutation must break equality")
	}
}
