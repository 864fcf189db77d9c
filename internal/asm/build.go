package asm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"xt910/isa"
)

// Kind says what an Item is.
type Kind uint8

// Item kinds. The comment on each names the Item fields it reads.
const (
	// KindInst is one machine instruction, Inst. With Ref set, Inst.Imm is
	// the value of Ref (shifted into place for lui/auipc) and the
	// instruction keeps its 4-byte form.
	KindInst Kind = iota
	// KindLabel defines the label Ref at the current address.
	KindLabel
	// KindBranch is a branch or jal, Inst, to an absolute target: the value
	// of Ref, or Inst.Imm when Ref is empty. Never compressed.
	KindBranch
	// KindLi loads the constant Inst.Imm into Inst.Rd with the shortest
	// lui/addi/slli sequence.
	KindLi
	// KindLa loads the value of Ref into Inst.Rd with the fixed lui+addiw
	// pair, so its size does not depend on where Ref lands.
	KindLa
	// KindData is a run of Size-byte little-endian words: the constants
	// Words, or one word holding the value of Ref.
	KindData
	// KindAlign pads with zeros to a multiple of 2^Inst.Imm bytes.
	KindAlign
	// KindOrg pads with zeros up to the absolute address Inst.Imm.
	KindOrg
	// KindSpace appends Inst.Imm zero bytes (none when negative).
	KindSpace
)

// Spell records how the source text writes an Item where an instruction alone
// does not say; it changes nothing about the bytes.
type Spell uint8

const (
	// SpellABIRs1 and SpellABIRs2 write that operand by ABI name ("t0", not "x5").
	SpellABIRs1 Spell = 1 << iota
	SpellABIRs2
	// SpellPseudo writes csrr/csrw for a csrrs/csrrw with an x0 operand and
	// beqz/bnez for a beq/bne against x0.
	SpellPseudo
)

// Item is the unit both front ends feed the back end: an instruction, a label,
// a pseudo-instruction the back end expands, data or padding. Its size in the
// image follows from the Item alone — never from the value of a Ref — so a
// list of Items is laid out in the same walk that encodes it, and Refs are
// patched in once every label has an address.
type Item struct {
	Kind  Kind
	Spell Spell
	Size  uint8 // KindData: bytes per word (1, 2, 4 or 8)
	// Line is the source statement the text front end cut the Item from
	// (1-based, 0 for a generated Item); errors quote it.
	Line int32
	Inst isa.Inst
	// Ref is a label name or an integer expression over labels, `.` and
	// .equ constants, evaluated after layout.
	Ref   string
	Words []int64
}

// Builder is the assembler's back end. Items go in through Add in image
// order; Program patches the deferred references and returns the image.
type Builder struct {
	opts     Options
	out      []byte
	symbols  map[string]uint64
	numInsts int
	fixups   []fixup
	fixup0   [16]fixup // first backing of fixups: most programs need no other
	err      error

	// The text front end's side of the symbol table, its statements, and the
	// backing of the one-word data Items it makes.
	equs     map[string]equ
	lateEqus []equ // every deferred .equ, checked once the labels are known
	lines    []stmt
	word     [1]int64

	record *[]Item // when set, every Item added is also appended here (tests)
}

// fixup is an Item whose bytes wait for the value of its Ref.
type fixup struct {
	off  int // offset of the reserved bytes in out
	item Item
}

// equ is a .equ/.set constant. One that names a label not yet defined keeps
// its expression, the address it was written at and its source line.
type equ struct {
	val  int64
	ref  string
	pc   uint64
	line int32
}

// NewBuilder starts an image at opts.Base (default 0x1000); sizeHint is the
// expected image size in bytes (0 when unknown).
func NewBuilder(opts Options, sizeHint int) *Builder {
	if opts.Base == 0 {
		opts.Base = 0x1000
	}
	b := &Builder{opts: opts, out: make([]byte, 0, sizeHint), symbols: map[string]uint64{}}
	b.fixups = b.fixup0[:0]
	return b
}

// Add appends items to the image. After the first failure it does nothing;
// Program reports the error.
func (b *Builder) Add(items []Item) {
	for i := 0; i < len(items) && b.err == nil; i++ {
		b.err = b.add(&items[i])
	}
}

// Program resolves every deferred reference and returns the finished image.
func (b *Builder) Program() (*Program, error) {
	if b.err == nil {
		b.err = b.fixup()
	}
	if b.err != nil {
		return nil, b.err
	}
	entry := b.opts.Base
	if e, ok := b.symbols["_start"]; ok {
		entry = e
	}
	return &Program{Base: b.opts.Base, Data: b.out, Entry: entry, Symbols: b.symbols, NumInsts: b.numInsts}, nil
}

func (b *Builder) pc() uint64 { return b.opts.Base + uint64(len(b.out)) }

// errf words an error about it: by source line when the text front end made
// the Item, by the Item's own text otherwise.
func (b *Builder) errf(it *Item, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if n := int(it.Line); n > 0 && n <= len(b.lines) {
		l := &b.lines[n-1]
		return fmt.Errorf("asm: line %d: %s: %s", l.num, l.text, msg)
	}
	text := *it // printing goes through an interface: a copy keeps every caller's Item off the heap
	return fmt.Errorf("asm: item %q: %s", strings.TrimSpace(string(appendItem(nil, &text))), msg)
}

func (b *Builder) add(it *Item) error {
	if b.record != nil {
		c := *it
		c.Words = append([]int64(nil), it.Words...) // the front end reuses its backing
		*b.record = append(*b.record, c)
	}
	switch it.Kind {
	case KindLabel:
		n := len(b.symbols)
		if b.symbols[it.Ref] = b.pc(); len(b.symbols) == n { // one map operation, not two
			return b.errf(it, "duplicate label %q", it.Ref)
		}
	case KindInst, KindBranch:
		if it.Ref != "" {
			b.reserve(it, 4, 1)
			return nil
		}
		in := it.Inst
		if it.Kind == KindBranch {
			in.Imm -= int64(b.pc())
		}
		return b.emitInst(it, in, it.Kind == KindInst)
	case KindLi:
		return b.li(it, it.Inst.Rd, it.Inst.Imm)
	case KindLa:
		b.reserve(it, 8, 2)
	case KindData:
		if it.Ref != "" {
			b.reserve(it, int(it.Size), 0)
			return nil
		}
		for _, w := range it.Words {
			b.out = appendWord(b.out, uint64(w), int(it.Size))
		}
	case KindAlign:
		v := it.Inst.Imm
		if v < 0 || v > 63 {
			return b.errf(it, "alignment 2^%d out of range", v)
		}
		return b.pad(it, -b.pc()&(uint64(1)<<uint(v)-1))
	case KindOrg:
		target := uint64(it.Inst.Imm)
		if target < b.pc() {
			return b.errf(it, ".org moves backwards (pc=%#x)", b.pc())
		}
		return b.pad(it, target-b.pc())
	case KindSpace:
		if it.Inst.Imm > 0 {
			return b.pad(it, uint64(it.Inst.Imm))
		}
	default:
		return b.errf(it, "unknown item kind %d", it.Kind)
	}
	return nil
}

// reserve leaves n zero bytes for it, the insts instructions fixup will write
// there, and queues it for fixup.
func (b *Builder) reserve(it *Item, n, insts int) {
	b.fixups = append(b.fixups, fixup{off: len(b.out), item: *it})
	b.out = append(b.out, make([]byte, n)...)
	b.numInsts += insts
}

// appendWord appends the low size bytes of v, little-endian.
func appendWord(out []byte, v uint64, size int) []byte {
	switch size {
	case 2:
		return binary.LittleEndian.AppendUint16(out, uint16(v))
	case 4:
		return binary.LittleEndian.AppendUint32(out, uint32(v))
	case 8:
		return binary.LittleEndian.AppendUint64(out, v)
	}
	for i := 0; i < size; i++ {
		out = append(out, byte(v>>(8*i)))
	}
	return out
}

func putWord(dst []byte, v uint64, size int) {
	for i := 0; i < size; i++ {
		dst[i] = byte(v >> (8 * i))
	}
}

// maxImageBytes bounds an assembled image. The padding items are the only
// ones whose output is not proportional to their input, so they are where it
// is enforced; the biggest checked-in kernel is a few tens of kilobytes.
const maxImageBytes = 64 << 20

// pad extends the image by n zero bytes in one step.
func (b *Builder) pad(it *Item, n uint64) error {
	if size := uint64(len(b.out)); size > maxImageBytes || n > maxImageBytes-size {
		return b.errf(it, "image would exceed %d bytes", maxImageBytes)
	}
	b.out = append(b.out, make([]byte, n)...)
	return nil
}

// mayCompress reports whether op belongs to a class the assembler shrinks to
// RVC when the operands allow. Branches and jal never do: they are written
// against labels, whose distance is not known when the instruction is sized.
func mayCompress(op isa.Op) bool {
	switch op.Class() {
	case isa.ClassALU, isa.ClassMul, isa.ClassDiv, isa.ClassLoad, isa.ClassStore:
		return true
	}
	return op == isa.JALR
}

// encode is the one place an instruction becomes bits: its immediate is held
// to the range and alignment of its encoding format — isa.Encode would
// silently truncate it into a different instruction — then it is compressed
// if allowed and possible, or encoded. size is 2 or 4.
func (b *Builder) encode(it *Item, in isa.Inst, compress bool) (raw uint32, size int, err error) {
	if lo, hi, align, ok := isa.ImmRange(in.Op); ok {
		upper := in.Op == isa.LUI || in.Op == isa.AUIPC
		switch v := in.Imm; {
		case upper && (v < lo || v > hi): // report the operand as written: in 4 KiB units
			return 0, 0, b.errf(it, "immediate %d out of range [%d, %d]", v>>12, lo>>12, hi>>12)
		case v < lo || v > hi:
			return 0, 0, b.errf(it, "immediate %d out of range [%d, %d]", v, lo, hi)
		case v&(align-1) != 0:
			return 0, 0, b.errf(it, "immediate %d is not a multiple of %d", v, align)
		}
		if upper {
			in.Imm = int64(int32(in.Imm)) // the unsigned spelling of a negative upper immediate
		}
	}
	if compress && b.opts.Compress && mayCompress(in.Op) {
		if c, ok := isa.Compress(in); ok {
			return uint32(c), 2, nil
		}
	}
	raw, err = isa.Encode(in)
	if err != nil {
		return 0, 0, b.errf(it, "%v", err)
	}
	return raw, 4, nil
}

// emitInst appends one instruction.
func (b *Builder) emitInst(it *Item, in isa.Inst, compress bool) error {
	raw, size, err := b.encode(it, in, compress)
	if err != nil {
		return err
	}
	b.numInsts++
	b.out = appendWord(b.out, uint64(raw), size)
	return nil
}

// li materializes an arbitrary 64-bit constant, mirroring the GNU assembler's
// expansion strategy.
func (b *Builder) li(it *Item, rd isa.Reg, v int64) error {
	// 12-bit immediate
	if v >= -2048 && v < 2048 {
		in := isa.NewInst(isa.ADDI)
		in.Rd, in.Rs1, in.Imm = rd, isa.Zero, v
		return b.emitInst(it, in, true)
	}
	// 32-bit: lui (+ addiw)
	if v >= -(1<<31) && v < 1<<31 {
		lui, addiw := liPair(rd, v)
		if err := b.emitInst(it, lui, true); err != nil {
			return err
		}
		if addiw.Imm != 0 {
			return b.emitInst(it, addiw, true)
		}
		return nil
	}
	// 64-bit: build upper part recursively, shift, add low bits
	lo := v << 52 >> 52
	hi := v - lo
	shift := 12
	for hi&(1<<uint(shift)) == 0 && shift < 63 {
		shift++
	}
	if err := b.li(it, rd, hi>>uint(shift)); err != nil {
		return err
	}
	in := isa.NewInst(isa.SLLI)
	in.Rd, in.Rs1, in.Imm = rd, rd, int64(shift)
	if err := b.emitInst(it, in, true); err != nil {
		return err
	}
	if lo != 0 {
		in = isa.NewInst(isa.ADDI)
		in.Rd, in.Rs1, in.Imm = rd, rd, lo
		return b.emitInst(it, in, true)
	}
	return nil
}

// liPair splits a 32-bit value into the lui+addiw pair that builds it.
func liPair(rd isa.Reg, v int64) (lui, addiw isa.Inst) {
	lo := v << 52 >> 52
	lui = isa.NewInst(isa.LUI)
	lui.Rd, lui.Imm = rd, int64(int32(v-lo))
	addiw = isa.NewInst(isa.ADDIW)
	addiw.Rd, addiw.Rs1, addiw.Imm = rd, rd, lo
	return lui, addiw
}

// fixup gives every deferred Item the value of its Ref and writes its bytes
// into the space reserve left for it.
func (b *Builder) fixup() error {
	for _, e := range b.lateEqus {
		if _, _, err := b.eval(e.ref, e.pc, evalFinal, 0); err != nil {
			return b.errf(&Item{Line: e.line}, "%v", err)
		}
	}
	for i := range b.fixups {
		f := &b.fixups[i]
		it := &f.item
		pc := b.opts.Base + uint64(f.off)
		v, _, err := b.eval(it.Ref, pc, evalFinal, 0)
		if err != nil {
			return b.errf(it, "%v", err)
		}
		dst := b.out[f.off:]
		switch it.Kind {
		case KindData:
			putWord(dst, uint64(v), int(it.Size))
			continue
		case KindLa:
			// Label values must fit in 32 bits — the model's physical
			// address space does.
			if v < -(1<<31) || v >= 1<<31 {
				return b.errf(it, "label value %#x out of la range", v)
			}
			lui, addiw := liPair(it.Inst.Rd, v)
			for k, in := range [2]isa.Inst{lui, addiw} {
				raw, _, err := b.encode(it, in, false)
				if err != nil {
					return err
				}
				putWord(dst[4*k:], uint64(raw), 4)
			}
			continue
		}
		in := it.Inst
		switch {
		case it.Kind == KindBranch:
			in.Imm = v - int64(pc)
		case in.Op == isa.LUI || in.Op == isa.AUIPC:
			in.Imm = v << 12
		default:
			in.Imm = v
		}
		raw, _, err := b.encode(it, in, false)
		if err != nil {
			return err
		}
		putWord(dst, uint64(raw), 4)
	}
	return nil
}

// evalMode says which names an expression may resolve.
type evalMode uint8

const (
	// evalOperand is an instruction or data operand as the statement is read:
	// literals, `.` and constant .equ names resolve; a label is deferred
	// even when already defined, so that layout never depends on one.
	evalOperand evalMode = iota
	// evalEqu is a .equ value: labels defined so far resolve too, and a
	// name not yet defined defers the whole constant.
	evalEqu
	// evalFinal resolves everything or fails.
	evalFinal
)

var errEquDepth = errors.New(".equ constants nest too deeply")

// eval evaluates an integer expression: decimal/hex literals, symbols, `.`
// (pc) and .equ constants, with +, - and * left-to-right. deferred reports a
// name that mode does not resolve yet; the value is then meaningless.
func (b *Builder) eval(s string, pc uint64, mode evalMode, depth int) (total int64, deferred bool, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false, errors.New("empty expression")
	}
	op := byte('+')
	for i := 0; i < len(s); {
		// read a term, with its leading unary sign
		j := i
		if s[j] == '-' || s[j] == '+' {
			j++
		}
	term:
		for ; j < len(s); j++ {
			switch s[j] {
			case '+', '-', '*':
				break term
			}
		}
		v, d, err := b.evalTerm(strings.TrimSpace(s[i:j]), pc, mode, depth)
		if err != nil {
			return 0, false, err
		}
		deferred = deferred || d
		switch op {
		case '+':
			total += v
		case '-':
			total -= v
		case '*':
			total *= v
		}
		if j < len(s) {
			op = s[j]
			j++
		}
		i = j
	}
	return total, deferred, nil
}

func (b *Builder) evalTerm(t string, pc uint64, mode evalMode, depth int) (v int64, deferred bool, err error) {
	if t == "" {
		return 0, false, errors.New("empty term")
	}
	neg := false
	if t[0] == '-' {
		neg, t = true, strings.TrimSpace(t[1:])
	} else if t[0] == '+' {
		t = strings.TrimSpace(t[1:])
	}
	if t == "." {
		v = int64(pc)
	} else if n, ok := parseLiteral(t); ok {
		v = n
	} else if c, ok := b.equs[t]; ok {
		switch {
		case c.ref == "":
			v = c.val
		case mode != evalFinal:
			deferred = true
		case depth >= 8:
			return 0, false, errEquDepth
		default:
			if v, _, err = b.eval(c.ref, c.pc, evalFinal, depth+1); err != nil {
				return 0, false, err
			}
		}
	} else if sym, ok := b.symbols[t]; ok && mode != evalOperand {
		v = int64(sym)
	} else if mode != evalFinal {
		deferred = true
	} else {
		return 0, false, fmt.Errorf("undefined symbol %q", t)
	}
	if neg {
		v = -v
	}
	return v, deferred, nil
}
