package isa

import (
	"math/bits"
	"testing"
)

// TestRVCFormsComplete: the RV64C table checks itself. In every row, the
// operands hold disjoint parcel bits (rs1 may share rd's field: tied) that
// the match leaves clear, and the immediate's layout is sound. No parcel is
// two rows'; every row is some parcel's, its match with all its free bits set
// among them (FuzzDecode's seed for it); and, over all 65 536 parcels, an
// expansion Compress accepts comes back as the same expansion.
func TestRVCFormsComplete(t *testing.T) {
	for i := range rvcForms {
		f := &rvcForms[i]
		held := f.rd.bits()
		for _, b := range []uint16{f.rs1.bits(), f.rs2.bits(), uint16(f.imm.put(-1))} {
			if held&b != 0 && b != f.rd.bits() {
				t.Errorf("%s: operands overlap at %04x", f.name, held&b)
			}
			held |= b
		}
		if f.match&held != 0 {
			t.Errorf("%s: match %04x sets operand bits %04x", f.name, f.match, f.match&held)
		}
		checkImmField(t, f.name, &f.imm)
	}
	owner := make([]*cForm, 1<<16)
	decodes := map[*cForm]int{}
	for w := 0; w < 1<<16; w++ {
		raw := uint16(w)
		for i := range rvcForms {
			f := &rvcForms[i]
			var in Inst
			if !f.decode(raw, &in) {
				continue
			}
			if owner[w] != nil {
				t.Errorf("%04x is both %s and %s", raw, owner[w].name, f.name)
			}
			owner[w] = f
			decodes[f]++
		}
		in := Decode16(raw)
		if c, ok := Compress(in); ok {
			if back := Decode16(c); back != in {
				t.Errorf("%04x expands to %+v, which compresses to %04x, which expands to %+v", raw, in, c, back)
			}
		}
	}
	for i := range rvcForms {
		f := &rvcForms[i]
		if decodes[f] == 0 {
			t.Errorf("%s decodes no parcel", f.name)
		}
		if seed := f.match | ^f.mask; owner[seed] != f {
			t.Errorf("%s: its seed parcel %04x is not one", f.name, seed)
		}
	}
}

// checkImmField: a layout's segments hold each immediate bit from its lowest
// to its top once, at instruction bits no other segment holds.
func checkImmField(t *testing.T, name string, m *immField) {
	t.Helper()
	var held uint64
	n := 0
	for _, s := range m.segs {
		b := uint64(s.ones()) << s.lo
		if s.hi < s.lo || held&b != 0 {
			t.Errorf("%s: immediate bits %d:%d held twice", name, s.hi, s.lo)
		}
		held |= b
		n += int(s.hi-s.lo) + 1
	}
	if m.segs != nil && held != uint64(1)<<m.width-uint64(m.align) {
		t.Errorf("%s: immediate bits %b, want every bit from %b to the top", name, held, m.align)
	}
	if got := bits.OnesCount32(m.put(-1)); got != n {
		t.Errorf("%s: segments overlap in the instruction (%d bits held, %d placed)", name, got, n)
	}
}
