package asm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"xt910/isa"
)

// TestImmediateRanges: an immediate that does not fit its encoding format is
// an error quoting the line, where the assembler used to truncate it into a
// different instruction (`ld x1, 4096(x2)` assembled as `ld ra, 0(sp)`); the
// in-range neighbour of each case still assembles. far is a label 5000 bytes
// (or 2 MiB) past the branch.
func TestImmediateRanges(t *testing.T) {
	far := func(inst string, bytes int) string {
		return fmt.Sprintf("%s\n.space %d\nfar:\n", inst, bytes-4)
	}
	for _, c := range []struct{ bad, good string }{
		{"ld x1, 4096(x2)", "ld x1, 2047(x2)"},
		{"ld x1, 2048(x2)", "ld x1, -2048(x2)"},
		{"sd x1, -2049(x2)", "sd x1, -2048(x2)"},
		{"addi x1, x2, 2048", "addi x1, x2, 2047"},
		{"slli x1, x2, 70", "slli x1, x2, 63"},
		{"slli x1, x2, 64", "slli x1, x2, 0"},
		{"sraiw x1, x2, 32", "sraiw x1, x2, 31"},
		{"srri x1, x2, 64", "srri x1, x2, 63"},
		{"lui x1, 1048576", "lui x1, 1048575"},
		{"lui x1, -524289", "lui x1, -524288"},
		{"auipc x1, 1048576", "auipc x1, 1048575"},
		{far("beq x1, x2, far", 5000), far("beq x1, x2, far", 4094)},
		{far("bnez x1, far", 4096), far("bnez x1, far", 4094)},
		{"back:\n.space 4098\nbeq x1, x2, back", "back:\n.space 4096\nbeq x1, x2, back"},
		{far("jal x0, far", 2<<20), far("jal x0, far", 1<<20-2)},
		{far("j far", 1<<20), far("call far", 1<<20-2)},
		{"beq x1, x2, 3", "beq x1, x2, 0x1004"},
		{"jal x1, 0x1001", "jal x1, 0x1002"},
		{"jalr x1, x2, 5000", "jalr x1, x2, 2047"},
		{"jalr x1, -2049(x2)", "jalr x1, -2048(x2)"},
		{"csrrwi x1, mscratch, 40", "csrrwi x1, mscratch, 31"},
		{"csrrsi x1, mscratch, -1", "csrrsi x1, mscratch, 0"},
		{"addsl x1, x2, x3, 9", "addsl x1, x2, x3, 3"},
		{"lrw x1, x2, x3, 4", "lrw x1, x2, x3, 3"},
		{"srd x1, x2, x3, -1", "srd x1, x2, x3, 0"},
		{"ext x1, x2, 64, 0", "ext x1, x2, 63, 0"},
		{"extu x1, x2, 3, 70", "extu x1, x2, 3, 2"},
		{"vadd.vi v1, v2, 99", "vadd.vi v1, v2, 15"},
		{"vadd.vi v1, v2, -17", "vadd.vi v1, v2, -16"},
		{"csrr x1, 4096", "csrr x1, 4095"},
	} {
		for _, compress := range []bool{false, true} {
			_, err := Assemble(c.bad, Options{Compress: compress})
			line := c.bad
			if i := strings.IndexByte(line, '\n'); i >= 0 && !strings.HasPrefix(line, "back:") {
				line = line[:i]
			}
			line = line[strings.LastIndexByte(line, '\n')+1:]
			if err == nil {
				t.Errorf("%q assembled", c.bad)
			} else if !strings.Contains(err.Error(), ": "+line+": ") {
				t.Errorf("%q: the error does not quote the line: %v", c.bad, err)
			}
			if _, err := Assemble(c.good, Options{Compress: compress}); err != nil {
				t.Errorf("%q: %v", c.good, err)
			}
		}
	}
	// A generated Item has no line: the error quotes the Item's own text.
	b := NewBuilder(Options{}, 0)
	in := isa.NewInst(isa.LD)
	in.Rd, in.Rs1, in.Imm = isa.RA, isa.SP, 4096
	b.Add([]Item{{Inst: in}})
	want := `asm: item "ld x1, 4096(x2)": immediate 4096 out of range [-2048, 2047]`
	if _, err := b.Program(); err == nil || err.Error() != want {
		t.Errorf("got %v\nwant %s", err, want)
	}
}

// TestItemSourceRoundTrip: AppendSource is the inverse of the text front end
// for every kind of Item and operand shape — the text of a list of Items
// assembles to the image the back end builds from the list itself.
func TestItemSourceRoundTrip(t *testing.T) {
	src := `
_start:
    la a0, table
    li a1, 0x123456789abcdef
    li a2, -7
    lui t0, 0xfffff
    auipc t1, 12
    addi sp, sp, -16
    slli a3, a3, 5
    sraiw a4, a5, 31
    add a0, a0, a1
    mulw a2, a3, a4
    ld a5, 8(sp)
    sb a1, -3(a0)
    fld fa0, 16(sp)
    fsw fa1, 4(a0)
    lrw a0, a1, a2, 2
    srd a0, a1, a2, 1
    addsl a0, a1, a2, 3
    ext a0, a1, 15, 8
    ff1 a0, a1
    mula a0, a1, a2
    srri a0, a1, 7
loop:
    beq a0, a1, done
    bnez a2, loop
    bgt a0, a1, loop
    jal ra, done
    j loop
    jalr ra, 8(t0)
    ret
done:
    lr.d a0, (a1)
    sc.w a0, a2, (a1)
    amoadd.d a0, a2, (a1)
    fadd.d fa0, fa1, fa2
    fmadd.s fa0, fa1, fa2, fa3
    fsqrt.d fa0, fa1
    fcvt.l.d a0, fa1
    fmv.d.x fa0, a1
    feq.s a0, fa1, fa2
    csrrw a0, mscratch, a1
    csrrsi zero, mstatus, 8
    csrr a0, mhartid
    csrw mtvec, a0
    fence
    fence.i
    wfi
    sfence.vma
    sfence.vma a0, a1
    dcache.cva a0
    dcache.iva
    sync
    vsetvli a0, a1, e32, m2
    vsetvl a0, a1, a2
    vle.v v1, (a0)
    vlse.v v1, (a0), a1
    vlxei.v v1, (a0), v2
    vse.v v1, (a0), v0.t
    vsse.v v1, (a0), a1
    vsxei.v v1, (a0), v2
    vadd.vv v1, v2, v3, v0.t
    vadd.vx v1, v2, a0
    vadd.vi v1, v2, -5
    vmv.v.x v1, a0
    vmv.x.s a0, v1
    vmv.v.v v1, v2, v0.t
    vmv.v.x v1, a0, v0.t
    vmv.s.x v1, a0, v0.t
    vmv.x.s a0, v1, v0.t
    addi a0, a0, table - 0x1000
    lw a1, done - loop(a0)
    lui a2, table
    ebreak
.align 3
table:
    .byte 1
    .half -2
    .word 3
    .dword 4
    .word done - loop
    .dword table
.space 5
.org 0x2000
    .word 7
`
	for _, compress := range []bool{false, true} {
		opts := Options{Compress: compress}
		var items []Item
		captured := NewBuilder(opts, 0)
		captured.record = &items
		want, err := captured.parse(splitLines(src))
		if err != nil {
			t.Fatal(err)
		}
		text := string(AppendSource(nil, items))
		got, err := Assemble(text, opts)
		if err != nil {
			t.Fatalf("the printed items do not assemble: %v\n%s", err, text)
		}
		b := NewBuilder(opts, 0)
		b.Add(items)
		direct, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		for name, p := range map[string]*Program{"text of the items": got, "items": direct} {
			if !bytes.Equal(p.Data, want.Data) || p.NumInsts != want.NumInsts || p.Entry != want.Entry {
				t.Errorf("rvc=%v: the %s built a different image\n%s", compress, name, text)
			}
		}
	}
}

// TestEquOverLabels: a .equ may be written over labels. Over labels already
// defined it is a constant like any other; over a later label it waits for
// layout, an operand that uses it is patched in afterwards, and the label
// still has to exist even if nothing uses the constant.
func TestEquOverLabels(t *testing.T) {
	p, err := Assemble(`
a:  .word 1, 2
b:
.equ BACK, b - a
.equ FWD, c - b
    li a0, BACK
    li a1, FWD
    .word FWD + 1
c:
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	insts := decodeAll(t, &Program{Data: p.Data[8:20]})
	if len(insts) != 3 || insts[0].Imm != 8 || insts[1].Op != isa.LUI || insts[2].Imm != 16 {
		t.Fatalf("li BACK is one addi of 8, li FWD the fixed pair for 16: %+v", insts)
	}
	if got := p.Data[20]; got != 17 {
		t.Fatalf(".word FWD + 1 = %d, want 17", got)
	}
	_, err = Assemble("nop\n.equ X, nowhere", Options{})
	if want := `asm: line 2: .equ X, nowhere: undefined symbol "nowhere"`; err == nil || err.Error() != want {
		t.Fatalf("got %v\nwant %s", err, want)
	}
}
