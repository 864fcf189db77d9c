package isa

import "fmt"

// Encode produces the 32-bit encoding of an instruction. RVC compression is a
// separate, optional step (Compress). Immediates are truncated to their field;
// ImmRange gives the bounds a caller that must not truncate checks first.
func Encode(in Inst) (uint32, error) {
	f := in.Op.format()
	if f == nil {
		return 0, fmt.Errorf("isa: cannot encode %v", in.Op)
	}
	raw := opMeta[in.Op].match
	for _, o := range f.opds {
		raw |= o.place(&in)
	}
	return raw, nil
}

// ImmRange returns the inclusive bounds and the alignment (a power of two) of
// the values Inst.Imm may take without Encode truncating it; ok is false for
// an op whose encoding carries no immediate.
func ImmRange(op Op) (lo, hi, align int64, ok bool) {
	for _, o := range op.Operands() {
		if m := &operands[o].imm; m.segs != nil {
			if o == ImmU {
				return m.lo, 1<<32 - m.align, m.align, true // the 20-bit field may be written unsigned as well
			}
			return m.lo, m.hi, m.align, true
		}
	}
	return 0, 0, 0, false
}

// MustEncode is Encode for known-good instructions (panics on failure); it is
// used by code generators whose instruction set is fixed.
func MustEncode(in Inst) uint32 {
	v, err := Encode(in)
	if err != nil {
		panic(err)
	}
	return v
}
