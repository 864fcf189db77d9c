package emu_test

import (
	"fmt"
	"testing"

	"xt910/internal/asm"
	"xt910/internal/cosim"
	"xt910/internal/emu"
	"xt910/internal/mem"
	"xt910/internal/workloads"
	"xt910/isa"
)

// TestDecodeMemoMatchesDecode fetches every halfword-aligned address of every
// kernel image and of a hundred fuzz programs, data and all, on one machine —
// so slots are reused across programs, the way a long run reuses them — and
// checks each answer, the first and an immediately repeated one, against a
// fresh decode of the bytes in memory.
func TestDecodeMemoMatchesDecode(t *testing.T) {
	type image struct {
		name string
		prog *asm.Program
	}
	var images []image
	for _, w := range append(workloads.All(), workloads.Stream, workloads.SpecLike) {
		for _, compress := range []bool{false, true} {
			p, err := w.Program(1, compress)
			if err != nil {
				t.Fatal(err)
			}
			images = append(images, image{fmt.Sprintf("%s/rvc=%v", w.Name, compress), p})
		}
	}
	for i, modes := range []string{"", "paged", "irq", "smp"} {
		m, err := cosim.ParseModes(modes)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 25; seed++ {
			src, _ := cosim.GenerateSource(seed+int64(100*i), 0, cosim.Options{Modes: m})
			p, err := asm.Assemble(src, asm.Options{Base: 0x1000, Compress: true})
			if err != nil {
				t.Fatal(err)
			}
			images = append(images, image{fmt.Sprintf("fuzz/%s/%d", modes, seed), p})
		}
	}

	m := emu.New(mem.NewMemory())
	fetches := 0
	for _, im := range images {
		im.prog.LoadInto(m.Mem)
		for off := uint64(0); off+4 <= uint64(len(im.prog.Data)); off += 2 {
			va := im.prog.Base + off
			want := isa.Decode16(uint16(m.Mem.Read(va, 2)))
			if raw := uint32(m.Mem.Read(va, 4)); raw&3 == 3 {
				want = isa.Decode(raw)
			}
			for pass := 0; pass < 2; pass++ {
				got, err := m.Fetch(va)
				if err != nil {
					t.Fatalf("%s: fetch %#x: %v", im.name, va, err)
				}
				if got != want {
					t.Fatalf("%s: fetch %#x (pass %d) = %+v, a fresh decode gives %+v", im.name, va, pass, got, want)
				}
				fetches++
			}
		}
	}
	t.Logf("%d images, %d fetches", len(images), fetches)
}
