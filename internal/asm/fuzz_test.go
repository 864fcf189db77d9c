package asm_test

import (
	"bytes"
	"maps"
	"testing"

	"xt910/internal/asm"
)

// FuzzAssemble feeds the assembler arbitrary source: it must answer with an
// error or a Program, never a panic, and the same source must assemble to the
// same image twice. The seed corpus is one generated fuzz program per cosim
// mode, two kernels, and the malformed directive and operand lines that used
// to panic.
func FuzzAssemble(f *testing.F) {
	for _, modes := range fuzzModes {
		f.Add(fuzzSource(f, modes, 1), true)
	}
	for _, w := range goldenKernels()[:2] {
		f.Add(w.Gen(1), false)
	}
	for _, src := range []string{
		".org", ".align", ".space", ".zero", ".align -1", ".align 64",
		".space 0x7fffffffffffffff", ".org -1", "x: y: .zero 4\n.org 0x2000",
		"not", "neg a0", "vle.v v1", "vsetvli a0", "jalr", "li a0,", "a0,,a1",
		".ascii \"a,b#c\"", ".equ N, 3\nli a0, N*-2", ":", "l: .word l - ., 0x8000000000000000",
	} {
		f.Add(src, true)
	}
	f.Fuzz(func(t *testing.T, src string, compress bool) {
		opts := asm.Options{Base: 0x1000, Compress: compress}
		p, err := asm.Assemble(src, opts)
		if err != nil {
			return
		}
		q, err := asm.Assemble(src, opts)
		if err != nil {
			t.Fatalf("assembled once, then: %v", err)
		}
		if !bytes.Equal(p.Data, q.Data) || p.Entry != q.Entry || p.NumInsts != q.NumInsts || !maps.Equal(p.Symbols, q.Symbols) {
			t.Fatal("the same source assembled to two different images")
		}
	})
}
