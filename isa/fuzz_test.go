package isa_test

import (
	"math/rand"
	"testing"

	"xt910/internal/emu"
	"xt910/internal/mem"
	"xt910/isa"
)

// FuzzDecode feeds any 32-bit word to both decoders. Neither may panic; an
// instruction Encode accepts must re-encode and re-decode to itself; and the
// golden model's decode memo, fetching the word from memory (twice: the
// second answer comes from the memo), must agree with the fresh decode. The
// seed corpus is one encoding of every operation randInst can build, which
// TestEncodeDecodeRoundTrip proves is all of them, and one parcel of every
// RV64C form.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(910))
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		in, ok := isa.RandInst(rng, op)
		if !ok {
			f.Fatalf("randInst has no generator for %v", op)
		}
		raw, err := isa.Encode(in)
		if err != nil {
			f.Fatalf("encode %v: %v", op, err)
		}
		f.Add(raw)
		if c, ok := isa.Compress(in); ok {
			f.Add(uint32(c))
		}
	}
	f.Add(uint32(0))
	f.Add(^uint32(0))
	for _, c := range isa.RVCSeeds() {
		f.Add(uint32(c))
	}

	const pc = 0x1000
	m := emu.New(mem.NewMemory())
	f.Fuzz(func(t *testing.T, raw uint32) {
		want := isa.Decode16(uint16(raw))
		if raw&3 == 3 {
			want = isa.Decode(raw)
			if again, err := isa.Encode(want); err == nil {
				if back := isa.Decode(again); back != want {
					t.Fatalf("%08x decodes to %+v, which encodes to %08x and decodes to %+v", raw, want, again, back)
				}
			}
		} else {
			isa.Decode(raw) // not a fetchable 32-bit word, still must not panic
		}
		m.Mem.Write(pc, 4, uint64(raw))
		for pass := 0; pass < 2; pass++ {
			got, err := m.Fetch(pc)
			if err != nil {
				t.Fatalf("fetch of %08x: %v", raw, err)
			}
			if got != want {
				t.Fatalf("%08x: fetch (pass %d) gives %+v, a fresh decode %+v", raw, pass, got, want)
			}
		}
	})
}
