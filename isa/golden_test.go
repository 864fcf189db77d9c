package isa_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"xt910/internal/workloads"
	"xt910/isa"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/*_golden.txt files from this build")

const (
	decodeGoldenFile = "testdata/decode_golden.txt"
	rvcGoldenFile    = "testdata/rvc_golden.txt"
)

// goldenKernels is every checked-in kernel, the two long-running ones included.
func goldenKernels() []workloads.Workload {
	return append(workloads.All(), workloads.Stream, workloads.SpecLike)
}

// listing walks an image the way `xtasm -d` does, calling visit with every
// 32-bit word (and its decode) or 16-bit parcel (and its expansion) in turn.
func listing(data []byte, visit func(raw uint32, in isa.Inst)) {
	for off := 0; off+1 < len(data); {
		lo := uint16(data[off]) | uint16(data[off+1])<<8
		if lo&3 != 3 {
			visit(uint32(lo), isa.Decode16(lo))
			off += 2
			continue
		}
		if off+3 >= len(data) {
			break
		}
		raw := uint32(lo) | uint32(data[off+2])<<16 | uint32(data[off+3])<<24
		visit(raw, isa.Decode(raw))
		off += 4
	}
}

// fields is an Inst without its String method: %+v of an Inst is its
// disassembly, %+v of this is every field by name.
type fields isa.Inst

// decodeGoldenLines digests what Decode answers, a line per subject so that a
// miss names it: per op, 64 encodings of randInst's instructions and each of
// their 32 single-bit flips; 2^22 words from a fixed xorshift; and per kernel
// image (with and without RVC) its decoded and disassembled listing.
func decodeGoldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	var buf []byte
	// Most words are illegal and all of those decode alike: format that one
	// answer once (under the race detector formatting is the whole cost).
	illegal := isa.NewInst(isa.ILLEGAL)
	illegalText := fmt.Appendf(nil, "%+v\n", fields(illegal))
	decode := func(h hash.Hash, raw uint32) {
		in := isa.Decode(raw)
		if in == illegal {
			h.Write(illegalText)
			return
		}
		buf = fmt.Appendf(buf[:0], "%+v\n", fields(in))
		h.Write(buf)
	}
	rng := rand.New(rand.NewSource(910))
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		h := sha256.New()
		for trial := 0; trial < 64; trial++ {
			in, ok := isa.RandInst(rng, op)
			if !ok {
				t.Fatalf("randInst has no generator for %v", op)
			}
			raw, err := isa.Encode(in)
			if err != nil {
				t.Fatalf("encode %v: %v", op, err)
			}
			decode(h, raw)
			for bit := 0; bit < 32; bit++ {
				decode(h, raw^1<<bit)
			}
		}
		lines = append(lines, fmt.Sprintf("op/%v: %x", op, h.Sum(nil)))
	}
	h := sha256.New()
	for x, i := uint32(2463534242), 0; i < 1<<22; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		decode(h, x)
	}
	lines = append(lines, fmt.Sprintf("xorshift32/2^22: %x", h.Sum(nil)))
	for _, w := range goldenKernels() {
		for _, compress := range []bool{true, false} {
			p, err := w.Program(w.DefaultIters, compress)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			h := sha256.New()
			prev := ^uint32(0) // a run of equal parcels (a zeroed array) is formatted once
			listing(p.Data, func(raw uint32, in isa.Inst) {
				if raw != prev {
					buf = fmt.Appendf(buf[:0], "%08x %+v %v\n", raw, fields(in), in)
					prev = raw
				}
				h.Write(buf)
			})
			lines = append(lines, fmt.Sprintf("kernel/%s/rvc=%v: %x", w.Name, compress, h.Sum(nil)))
		}
	}
	return lines
}

// rvcRanges lists, per op a compressed form expands to, the immediate range
// and alignment ({lo, hi, align}) of each of those forms, as the RVC spec
// gives them; a form without an immediate has the range {0, 0, 1}.
var rvcRanges = []struct {
	op     isa.Op
	ranges [][3]int64
}{
	{isa.ADDI, [][3]int64{{-32, 31, 1}, {-512, 496, 16}, {0, 1020, 4}}}, // c.li and c.addi, c.addi16sp, c.addi4spn
	{isa.ADDIW, [][3]int64{{-32, 31, 1}}},
	{isa.LUI, [][3]int64{{-32 << 12, 31 << 12, 1 << 12}}},
	{isa.LW, [][3]int64{{0, 252, 4}, {0, 124, 4}}}, // c.lwsp, c.lw
	{isa.LD, [][3]int64{{0, 504, 8}, {0, 248, 8}}},
	{isa.SW, [][3]int64{{0, 252, 4}, {0, 124, 4}}},
	{isa.SD, [][3]int64{{0, 504, 8}, {0, 248, 8}}},
	{isa.FLD, [][3]int64{{0, 504, 8}, {0, 248, 8}}},
	{isa.FSD, [][3]int64{{0, 504, 8}, {0, 248, 8}}},
	{isa.SLLI, [][3]int64{{0, 63, 1}}},
	{isa.SRLI, [][3]int64{{0, 63, 1}}},
	{isa.SRAI, [][3]int64{{0, 63, 1}}},
	{isa.ANDI, [][3]int64{{-32, 31, 1}}},
	{isa.SUB, [][3]int64{{0, 0, 1}}},
	{isa.XOR, [][3]int64{{0, 0, 1}}},
	{isa.OR, [][3]int64{{0, 0, 1}}},
	{isa.AND, [][3]int64{{0, 0, 1}}},
	{isa.SUBW, [][3]int64{{0, 0, 1}}},
	{isa.ADDW, [][3]int64{{0, 0, 1}}},
	{isa.ADD, [][3]int64{{0, 0, 1}}}, // c.mv, c.add
	{isa.JAL, [][3]int64{{-2048, 2046, 2}}},
	{isa.JALR, [][3]int64{{0, 0, 1}}}, // c.jr, c.jalr
	{isa.BEQ, [][3]int64{{-256, 254, 2}}},
	{isa.BNE, [][3]int64{{-256, 254, 2}}},
	{isa.EBREAK, [][3]int64{{0, 0, 1}}},
}

// rvcEdges returns the immediates at the edges of op's compressed ranges —
// lo−align, lo, hi, hi+align, a misaligned value and 0 — that the op's own
// encoding holds exactly (an op without an immediate holds only 0): the
// values an assembled instruction can carry into Compress.
func rvcEdges(op isa.Op, ranges [][3]int64) []int64 {
	var imms []int64
	for _, r := range ranges {
		lo, hi, align := r[0], r[1], r[2]
		imms = append(imms, lo-align, lo, hi, hi+align, 0)
		if align > 1 {
			imms = append(imms, lo+align/2)
		}
	}
	slices.Sort(imms)
	imms = slices.Compact(imms)
	lo, hi, align, ok := isa.ImmRange(op)
	return slices.DeleteFunc(imms, func(v int64) bool {
		if !ok {
			return v != 0
		}
		return v < lo || v > hi || v&(align-1) != 0
	})
}

// rvcGoldenLines digests what Decode16 and Compress answer. A line per
// quadrant/funct3 bucket of parcels: each parcel's expansion (every field and
// its disassembly) and, for a legal one, what Compress makes of it. Then a
// line per op a compressed form expands to: Compress over every register of
// the right file in each of the op's register operands, crossed with
// rvcEdges.
func rvcGoldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	var buf []byte
	for b := 0; b < 32; b++ {
		q, f3 := b>>3, b&7
		h := sha256.New()
		legal, compressed := 0, 0
		for mid := 0; mid < 1<<11; mid++ {
			raw := uint16(f3<<13 | mid<<2 | q)
			in := isa.Decode16(raw)
			buf = fmt.Appendf(buf[:0], "%04x %+v %v", raw, fields(in), in)
			if in.Op != isa.ILLEGAL {
				legal++
				c, ok := isa.Compress(in)
				if ok {
					compressed++
				}
				buf = fmt.Appendf(buf, " %04x %v", c, ok)
			}
			h.Write(append(buf, '\n'))
		}
		lines = append(lines, fmt.Sprintf("decode16/q%d/f3=%d: %d legal, %d compress: %x", q, f3, legal, compressed, h.Sum(nil)))
	}
	for _, r := range rvcRanges {
		imms := rvcEdges(r.op, r.ranges)
		// The trip through Encode and Decode puts each register in its file.
		tmpl := isa.NewInst(r.op)
		var slots []*isa.Reg
		for _, o := range r.op.Operands() {
			if reg := o.Reg(&tmpl); reg != nil {
				slots = append(slots, reg)
			}
		}
		h := sha256.New()
		n, compressed := 0, 0
		for combo := 0; combo < 1<<(5*len(slots)); combo++ {
			for i, reg := range slots {
				*reg = isa.X(combo >> (5 * i) & 31)
			}
			tmpl.Imm = 0
			in := isa.Decode(isa.MustEncode(tmpl))
			for _, v := range imms {
				in.Imm = v
				c, ok := isa.Compress(in)
				n++
				var accepted byte
				if ok {
					compressed++
					accepted = 1
				}
				h.Write([]byte{byte(c), byte(c >> 8), accepted})
			}
		}
		if n == 0 {
			t.Fatalf("%v: no instructions in the sweep", r.op)
		}
		lines = append(lines, fmt.Sprintf("compress/%v: %d insts, %d compress, imms %v: %x", r.op, n, compressed, imms, h.Sum(nil)))
	}
	return lines
}

// checkGolden compares got with the lines of file, or rewrites the file
// under -update-golden.
func checkGolden(t *testing.T, file string, got []string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(file, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d golden lines, %s has %d", len(got), file, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// TestDecodeGolden holds Decode (and Inst.String over the kernels) to what
// they answered before the op table drove them. The file was captured on the
// commit before the rewrite.
func TestDecodeGolden(t *testing.T) {
	checkGolden(t, decodeGoldenFile, decodeGoldenLines(t))
}

// TestRVCGolden holds Decode16 and Compress to what they answered as two
// hand-written switches, before one table of RV64C forms drove them. The
// file was captured on the commit before the rewrite.
func TestRVCGolden(t *testing.T) {
	checkGolden(t, rvcGoldenFile, rvcGoldenLines(t))
}
