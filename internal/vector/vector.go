// Package vector implements the XT-910 vector engine (§VII): the 0.7.1-draft
// register state (VLEN = SLEN = 128, the constant VLEN), the functional
// semantics of the implemented vector operations, and the slice-based timing
// parameters the pipeline model charges.
//
// The architecture is two vector slices, each with a full 64-bit data path
// and two execution pipelines, producing up to 256 bits of results per cycle;
// loads and stores move 128 bits per cycle through the LSU.
package vector

import (
	"encoding/binary"
	"fmt"
	"math"

	"xt910/internal/recycle"
	"xt910/isa"
)

// VLEN is the vector register width in bits of both models, the §VII
// recommendation: "two vector slices with 128-bit VLEN and SLEN are
// recommended". vlenb is the same in bytes.
const (
	VLEN  = 128
	vlenb = VLEN / 8
)

// File is the vector register file: 32 registers of VLEN bits, back to back in
// one array, so that a register group is one run of bytes.
type File struct {
	data [32 * vlenb]byte
}

// Bytes exposes register r's backing storage.
func (f *File) Bytes(r int) []byte { return f.Group(r, 1) }

// Group exposes the backing storage of the n registers from r on.
func (f *File) Group(r, n int) []byte {
	return f.data[r*vlenb : (r+n)*vlenb : (r+n)*vlenb]
}

// Clone deep-copies the file.
func (f *File) Clone() *File {
	c := *f
	return &c
}

// Equal reports whether two files hold identical contents.
func (f *File) Equal(o *File) bool {
	return f.data == o.data
}

// elem reads element idx of width sew bits from the register group starting
// at reg: element byte offset idx*sew/8 simply runs across consecutive
// registers.
func (f *File) elem(reg, idx, sew int) uint64 {
	o := reg*vlenb + idx*sew/8
	switch sew {
	case 8:
		return uint64(f.data[o])
	case 16:
		return uint64(binary.LittleEndian.Uint16(f.data[o:]))
	case 32:
		return uint64(binary.LittleEndian.Uint32(f.data[o:]))
	default:
		return binary.LittleEndian.Uint64(f.data[o:])
	}
}

func (f *File) setElem(reg, idx, sew int, v uint64) {
	o := reg*vlenb + idx*sew/8
	switch sew {
	case 8:
		f.data[o] = byte(v)
	case 16:
		binary.LittleEndian.PutUint16(f.data[o:], uint16(v))
	case 32:
		binary.LittleEndian.PutUint32(f.data[o:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(f.data[o:], v)
	}
}

// MemLoad and MemStore are the LSU callbacks vector memory operations use.
type MemLoad func(addr uint64, size int) uint64

// MemStore writes size bytes of val at addr.
type MemStore func(addr uint64, size int, val uint64)

// Unit binds a register file with configuration state and executes vector
// operations functionally.
type Unit struct {
	File  *File
	VL    uint64
	VType isa.VType
}

// freeUnits recycles units between the models that own them (DESIGN.md
// "Session storage recycling"): every unit on it is in the state NewUnit
// returns a new one in.
var freeUnits recycle.Objects[Unit]

// NewUnit creates a vector unit: a released one when the free list has one, a
// new one otherwise.
func NewUnit() *Unit {
	if u := freeUnits.Get(); u != nil {
		return u
	}
	return &Unit{File: new(File)}
}

// Reset zeroes every register, vl and vtype.
func (u *Unit) Reset() {
	*u.File = File{}
	u.VL, u.VType = 0, 0
}

// Release zeroes the unit and hands it to the units created after it. The
// caller must not use it afterwards.
func (u *Unit) Release() {
	u.Reset()
	freeUnits.Put(u)
}

// CopyFrom makes u hold exactly what o holds.
func (u *Unit) CopyFrom(o *Unit) {
	*u.File = *o.File
	u.VL, u.VType = o.VL, o.VType
}

// SetVL applies a vsetvl/vsetvli request: vl = min(requested, VLMAX),
// per the 0.7.1 rule that hardware picks the element count.
func (u *Unit) SetVL(requested uint64, vt isa.VType) uint64 {
	u.VType = vt
	max := uint64(vt.VLMAX(VLEN))
	if requested > max {
		requested = max
	}
	u.VL = requested
	return requested
}

// VSet executes vsetvl or vsetvli in, whose rs1 and rs2 read the given
// values, and returns the new vl. The vtype is vsetvli's immediate or
// vsetvl's rs2; rs1 = x0 with a destination other than x0 requests VLMAX.
func (u *Unit) VSet(in *isa.Inst, rs1, rs2 uint64) uint64 {
	vt := isa.VType(rs2)
	if in.Op == isa.VSETVLI {
		vt = isa.VType(in.Imm)
	}
	if in.Rs1 == isa.Zero && in.Rd != isa.Zero {
		rs1 = ^uint64(0)
	}
	return u.SetVL(rs1, vt)
}

// CSR reads vl, vtype or vlenb; a hart without a vector unit (u nil) reads 0.
func (u *Unit) CSR(num uint16) uint64 {
	if u == nil {
		return 0
	}
	switch num {
	case isa.CSRVl:
		return u.VL
	case isa.CSRVtype:
		return uint64(u.VType)
	case isa.CSRVlenb:
		return vlenb
	}
	return 0
}

// maskBit reads bit i of the mask register v0 (mask layout: one bit per
// element, packed LSB-first).
func (f *File) maskBit(i int) bool {
	return f.data[i/8]>>(uint(i)%8)&1 == 1
}

func sextTo(v uint64, sew int) int64 {
	sh := 64 - uint(sew)
	return int64(v<<sh) >> sh
}

// Exec executes one vector instruction functionally. scalar carries the
// integer register operand for .vx/.s.x forms. The returned xres/hasX pair
// holds an integer result (vmv.x.s). Memory operations use the callbacks.
func (u *Unit) Exec(in isa.Inst, scalar uint64, ld MemLoad, st MemStore) (xres uint64, hasX bool, err error) {
	f := u.File
	sew := u.VType.SEW()
	vl := int(u.VL)
	vd := in.Rd.Index()
	op := in.Op
	// Masked-off elements are skipped entirely: destinations stay
	// undisturbed and no memory access is issued for them.
	active := func(i int) bool { return !in.Masked || f.maskBit(i) }

	switch op {
	case isa.VLE:
		base := scalar
		for i := 0; i < vl; i++ {
			if !active(i) {
				continue
			}
			f.setElem(vd, i, sew, ld(base+uint64(i*sew/8), sew/8))
		}
		return 0, false, nil
	case isa.VLSE:
		base := scalar
		stride := in.Imm // core/emu pass the stride via Imm after reading rs2
		for i := 0; i < vl; i++ {
			if !active(i) {
				continue
			}
			f.setElem(vd, i, sew, ld(base+uint64(int64(i)*stride), sew/8))
		}
		return 0, false, nil
	case isa.VLXEI:
		base := scalar
		vidx := in.Rs2.Index()
		for i := 0; i < vl; i++ {
			if !active(i) {
				continue
			}
			f.setElem(vd, i, sew, ld(base+f.elem(vidx, i, sew), sew/8))
		}
		return 0, false, nil
	case isa.VSE:
		vs := in.Rs2.Index()
		base := scalar
		for i := 0; i < vl; i++ {
			if !active(i) {
				continue
			}
			st(base+uint64(i*sew/8), sew/8, f.elem(vs, i, sew))
		}
		return 0, false, nil
	case isa.VSSE:
		vs := in.Rs2.Index()
		base := scalar
		stride := in.Imm
		for i := 0; i < vl; i++ {
			if !active(i) {
				continue
			}
			st(base+uint64(int64(i)*stride), sew/8, f.elem(vs, i, sew))
		}
		return 0, false, nil
	case isa.VSXEI:
		vs, vidx := in.Rs2.Index(), in.Rs3.Index()
		base := scalar
		for i := 0; i < vl; i++ {
			if !active(i) {
				continue
			}
			st(base+f.elem(vidx, i, sew), sew/8, f.elem(vs, i, sew))
		}
		return 0, false, nil
	case isa.VMSEQVV:
		// mask-register result: bit i of vd = (vs2[i] == vs1[i]);
		// masked-off bits stay undisturbed
		vs1, vs2 := in.Rs1.Index(), in.Rs2.Index()
		for i := 0; i < vl; i++ {
			if !active(i) {
				continue
			}
			bit := byte(1) << (uint(i) % 8)
			if f.elem(vs2, i, sew) == f.elem(vs1, i, sew) {
				f.Bytes(vd)[i/8] |= bit
			} else {
				f.Bytes(vd)[i/8] &^= bit
			}
		}
		return 0, false, nil
	case isa.VMVXS:
		return sextXLen(f.elem(in.Rs2.Index(), 0, sew), sew), true, nil
	case isa.VMVSX:
		f.setElem(vd, 0, sew, scalar)
		return 0, false, nil
	case isa.VMVVX:
		for i := 0; i < vl; i++ {
			if !active(i) {
				continue
			}
			f.setElem(vd, i, sew, scalar)
		}
		return 0, false, nil
	case isa.VMVVV:
		vs := in.Rs1.Index()
		for i := 0; i < vl; i++ {
			if !active(i) {
				continue
			}
			f.setElem(vd, i, sew, f.elem(vs, i, sew))
		}
		return 0, false, nil
	case isa.VREDSUMVS, isa.VREDMAXVS:
		// vd[0] = op(vs1[0], vs2[0..vl-1]); masked-off elements don't
		// participate in the reduction
		vs1, vs2 := in.Rs1.Index(), in.Rs2.Index()
		acc := sextTo(f.elem(vs1, 0, sew), sew)
		for i := 0; i < vl; i++ {
			if !active(i) {
				continue
			}
			e := sextTo(f.elem(vs2, i, sew), sew)
			if op == isa.VREDSUMVS {
				acc += e
			} else if e > acc {
				acc = e
			}
		}
		f.setElem(vd, 0, sew, uint64(acc))
		return 0, false, nil
	case isa.VFREDSUMVS:
		vs1, vs2 := in.Rs1.Index(), in.Rs2.Index()
		acc := u.fbits2f(f.elem(vs1, 0, sew), sew)
		for i := 0; i < vl; i++ {
			if !active(i) {
				continue
			}
			acc += u.fbits2f(f.elem(vs2, i, sew), sew)
		}
		f.setElem(vd, 0, sew, u.f2fbits(acc, sew))
		return 0, false, nil
	case isa.VWMACCVV:
		// widening MAC: vd (2*SEW elements) += vs1 * vs2 (SEW elements).
		vs1, vs2 := in.Rs1.Index(), in.Rs2.Index()
		wide := sew * 2
		if wide > 64 {
			return 0, false, fmt.Errorf("vector: vwmacc with sew=%d unsupported", sew)
		}
		for i := 0; i < vl; i++ {
			if !active(i) {
				continue
			}
			a := sextTo(f.elem(vs1, i, sew), sew)
			b := sextTo(f.elem(vs2, i, sew), sew)
			c := sextTo(f.elem(vd, i, wide), wide)
			f.setElem(vd, i, wide, uint64(c+a*b))
		}
		return 0, false, nil
	}

	// Element-wise integer/FP arithmetic.
	getB := func(i int) uint64 {
		switch op {
		case isa.VADDVX, isa.VSUBVX, isa.VMULVX:
			return scalar
		case isa.VADDVI:
			return uint64(in.Imm)
		}
		return f.elem(in.Rs1.Index(), i, sew)
	}
	vs2 := in.Rs2.Index()
	for i := 0; i < vl; i++ {
		if !active(i) {
			continue
		}
		a := f.elem(vs2, i, sew)
		b := getB(i)
		var r uint64
		switch op {
		case isa.VADDVV, isa.VADDVX, isa.VADDVI:
			r = a + b
		case isa.VSUBVV, isa.VSUBVX:
			r = a - b
		case isa.VMULVV, isa.VMULVX:
			r = uint64(sextTo(a, sew) * sextTo(b, sew))
		case isa.VMACCVV:
			r = uint64(sextTo(f.elem(vd, i, sew), sew) + sextTo(a, sew)*sextTo(b, sew))
		case isa.VANDVV:
			r = a & b
		case isa.VORVV:
			r = a | b
		case isa.VXORVV:
			r = a ^ b
		case isa.VSLLVV:
			r = a << (b & uint64(sew-1))
		case isa.VSRLVV:
			r = a >> (b & uint64(sew-1))
		case isa.VMINVV:
			if sextTo(a, sew) < sextTo(b, sew) {
				r = a
			} else {
				r = b
			}
		case isa.VMAXVV:
			if sextTo(a, sew) > sextTo(b, sew) {
				r = a
			} else {
				r = b
			}
		case isa.VDIVVV:
			sa, sb := sextTo(a, sew), sextTo(b, sew)
			if sb == 0 {
				r = ^uint64(0)
			} else {
				r = uint64(sa / sb)
			}
		case isa.VREMVV:
			sa, sb := sextTo(a, sew), sextTo(b, sew)
			if sb == 0 {
				r = uint64(sa)
			} else {
				r = uint64(sa % sb)
			}
		case isa.VFADDVV:
			r = u.f2fbits(u.fbits2f(a, sew)+u.fbits2f(b, sew), sew)
		case isa.VFSUBVV:
			r = u.f2fbits(u.fbits2f(a, sew)-u.fbits2f(b, sew), sew)
		case isa.VFMULVV:
			r = u.f2fbits(u.fbits2f(a, sew)*u.fbits2f(b, sew), sew)
		case isa.VFDIVVV:
			r = u.f2fbits(u.fbits2f(a, sew)/u.fbits2f(b, sew), sew)
		case isa.VFMACCVV:
			c := u.fbits2f(f.elem(vd, i, sew), sew)
			r = u.f2fbits(u.fbits2f(a, sew)*u.fbits2f(b, sew)+c, sew)
		default:
			return 0, false, fmt.Errorf("vector: unimplemented op %v", op)
		}
		// fp16 special-case: round through half precision for exactness
		if sew == 16 {
			switch op {
			case isa.VFADDVV:
				r = uint64(AddF16(uint16(a), uint16(b)))
			case isa.VFSUBVV:
				r = uint64(SubF16(uint16(a), uint16(b)))
			case isa.VFMULVV:
				r = uint64(MulF16(uint16(a), uint16(b)))
			case isa.VFDIVVV:
				r = uint64(DivF16(uint16(a), uint16(b)))
			case isa.VFMACCVV:
				r = uint64(MaccF16(uint16(a), uint16(b), uint16(f.elem(vd, i, sew))))
			}
		}
		f.setElem(vd, i, sew, r)
	}
	return 0, false, nil
}

// fbits2f interprets raw element bits as a float by SEW (16/32/64).
func (u *Unit) fbits2f(v uint64, sew int) float64 {
	switch sew {
	case 16:
		return float64(F16ToF32(uint16(v)))
	case 32:
		return float64(math.Float32frombits(uint32(v)))
	default:
		return math.Float64frombits(v)
	}
}

func (u *Unit) f2fbits(f float64, sew int) uint64 {
	switch sew {
	case 16:
		return uint64(F32ToF16(float32(f)))
	case 32:
		return uint64(math.Float32bits(float32(f)))
	default:
		return math.Float64bits(f)
	}
}

func sextXLen(v uint64, sew int) uint64 {
	return uint64(sextTo(v, sew))
}

// OccupancyCycles returns how many cycles a vector operation occupies one of
// the vector pipes: one pass of the two 64-bit slices retires 128 bits of
// results, so an op over LMUL registers takes LMUL passes.
func OccupancyCycles(vt isa.VType) int {
	l := vt.LMUL()
	if l < 1 {
		l = 1
	}
	return l
}

// MemCycles returns the LSU occupancy of a vector load/store: 128 bits per
// cycle (§VII: "complete a 128-bit vector load/store operation" per cycle).
func MemCycles(vl int, vt isa.VType) int {
	bits := vl * vt.SEW()
	c := (bits + 127) / 128
	if c < 1 {
		c = 1
	}
	return c
}
