package isa

// decRow is one candidate of the decoder: the op whose word it is when
// raw&mask == match.
type decRow struct {
	mask, match uint32
	op          Op
}

// The decoder's index, built once from the op table: the rows that can match
// a word whose major opcode (bits [6:2]) and funct3 are b>>3 and b&7 are
// decRows[decStart[b]:decStart[b+1]]. A row whose format leaves funct3 free
// is listed under all eight. No two rows match the same word
// (TestOpMetaComplete), so the order within a bucket decides nothing.
var (
	decRows  []decRow
	decStart [32*8 + 1]uint16
)

func init() {
	for b := range decStart[:32*8] {
		decStart[b] = uint16(len(decRows))
		key := uint32(b>>3)<<2 | 3 | uint32(b&7)<<12
		for op := Op(1); op < numOps; op++ {
			m := &opMeta[op]
			if m.form == nil {
				continue // TestOpMetaComplete names it
			}
			if mask := m.form.mask; (key^m.match)&mask&(mOpc|mF3) == 0 {
				decRows = append(decRows, decRow{mask, m.match & mask, op})
			}
		}
	}
	decStart[32*8] = uint16(len(decRows))
}

// Decode decodes a 32-bit instruction word. Unrecognized encodings decode to
// an ILLEGAL instruction rather than an error: the pipeline traps on them at
// execute, matching hardware behaviour.
func Decode(raw uint32) Inst {
	in := NewInst(ILLEGAL)
	if raw&3 != 3 {
		return in
	}
	b := raw>>2&0x1F<<3 | raw>>12&7
	for _, r := range decRows[decStart[b]:decStart[b+1]] {
		if raw&r.mask == r.match {
			in.Op = r.op
			for _, o := range opMeta[r.op].form.opds {
				o.extract(raw, &in)
			}
			break
		}
	}
	return in
}
