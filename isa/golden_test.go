package isa_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"strings"
	"testing"

	"xt910/internal/workloads"
	"xt910/isa"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/decode_golden.txt from this build")

const decodeGoldenFile = "testdata/decode_golden.txt"

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

// TestDecodeGolden holds Decode (and Inst.String over the kernels) to what
// they answered before the op table drove them. The file was captured on the
// commit before the rewrite.
func TestDecodeGolden(t *testing.T) {
	got := decodeGoldenLines(t)
	if *updateGolden {
		if err := os.WriteFile(decodeGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(decodeGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d golden lines, file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("decode moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
