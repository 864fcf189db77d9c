// Package asm is the two-pass assembler of the XT-910 toolchain model. It
// accepts the GNU-flavoured subset the benchmark kernels are written in:
// labels, data directives, the standard pseudo-instructions (li, la, call,
// beqz, …), the vector 0.7.1 mnemonics, and the XT-910 custom extensions.
// With Compress enabled it emits RVC encodings where a compressed form
// exists, reproducing the code density the XT-910 front end is built around.
package asm

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"xt910/internal/mem"
	"xt910/isa"
)

// Options configures assembly.
type Options struct {
	// Base is the load/link address of the first byte (default 0x1000).
	Base uint64
	// Compress enables RVC auto-compression for instructions that do not
	// reference labels (label-relative instructions keep fixed 4-byte forms
	// so that pass-1 sizing is exact).
	Compress bool
}

// Program is an assembled image.
type Program struct {
	Base    uint64
	Data    []byte
	Entry   uint64
	Symbols map[string]uint64
	// NumInsts is the number of machine instructions emitted (the §IX
	// toolchain comparison counts static instructions).
	NumInsts int
}

// LoadInto copies the image into physical memory.
func (p *Program) LoadInto(m *mem.Memory) {
	m.StoreBytes(p.Base, p.Data)
}

// End returns the first address past the image.
func (p *Program) End() uint64 { return p.Base + uint64(len(p.Data)) }

// Assemble assembles source text.
func Assemble(src string, opts Options) (*Program, error) {
	if opts.Base == 0 {
		opts.Base = 0x1000
	}
	a := &assembler{
		opts:    opts,
		symbols: map[string]uint64{},
		equs:    map[string]int64{},
	}
	lines := splitLines(src)
	// Pass 1: compute sizes and label addresses.
	if err := a.scan(lines, true); err != nil {
		return nil, err
	}
	// Pass 2: emit bytes, into an image of the size pass 1 arrived at.
	if size := a.pc - opts.Base; size > 0 {
		a.out = make([]byte, 0, size)
	}
	a.numInsts = 0
	if err := a.scan(lines, false); err != nil {
		return nil, err
	}
	entry := opts.Base
	if e, ok := a.symbols["_start"]; ok {
		entry = e
	}
	return &Program{
		Base:     opts.Base,
		Data:     a.out,
		Entry:    entry,
		Symbols:  a.symbols,
		NumInsts: a.numInsts,
	}, nil
}

// MustAssemble panics on error; for known-good embedded kernels.
func MustAssemble(src string, opts Options) *Program {
	p, err := Assemble(src, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// srcLine is what an error message quotes: the 1-based line number and the
// line without its comment and surrounding space.
type srcLine struct {
	num  int
	text string
}

// stmt is one non-empty source line, cut once by splitLines; both passes walk
// these records and never look at the text again.
type stmt struct {
	srcLine
	labels   []string // labels defined on the line, in order
	mnemonic string   // lower-cased; "" when the line holds only labels
	rest     string   // the statement after its mnemonic, trimmed (string directives parse it whole)
	ops      []string // rest split on commas, each operand trimmed; nil when rest is empty
}

// splitLines is the only place a source line is cut: comments go, then the
// leading labels, then the mnemonic, then the comma-separated operands. The
// label and operand substrings of every line share one backing array, sized
// from a count of the separators so it never grows.
func splitLines(src string) []stmt {
	out := make([]stmt, 0, strings.Count(src, "\n")+1)
	toks := make([]string, 0, strings.Count(src, ",")+strings.Count(src, ":")+cap(out))
	for num := 1; src != ""; num++ {
		l := src
		if nl := strings.IndexByte(src, '\n'); nl >= 0 {
			l, src = src[:nl], src[nl+1:]
		} else {
			src = ""
		}
		if idx := strings.IndexByte(l, '#'); idx >= 0 {
			l = l[:idx]
		}
		if idx := strings.Index(l, "//"); idx >= 0 {
			l = l[:idx]
		}
		l = strings.TrimSpace(l)
		if l == "" {
			continue
		}
		st := stmt{srcLine: srcLine{num: num, text: l}}
		// labels (possibly several on one line)
		mark := len(toks)
		for {
			idx := strings.IndexByte(l, ':')
			if idx < 0 || strings.ContainsAny(l[:idx], " \t\"") {
				break
			}
			toks = append(toks, strings.TrimSpace(l[:idx]))
			l = strings.TrimSpace(l[idx+1:])
		}
		st.labels = toks[mark:len(toks):len(toks)]
		if l != "" {
			end := strings.IndexFunc(l, unicode.IsSpace)
			if end < 0 {
				end = len(l)
			}
			st.mnemonic = strings.ToLower(l[:end])
			st.rest = strings.TrimSpace(l[end:])
			mark = len(toks)
			for s, more := st.rest, st.rest != ""; more; {
				op := s
				if c := strings.IndexByte(s, ','); c >= 0 {
					op, s = s[:c], s[c+1:] // a trailing comma leaves one more, empty, operand
				} else {
					more = false
				}
				toks = append(toks, strings.TrimSpace(op))
			}
			if len(toks) > mark {
				st.ops = toks[mark:len(toks):len(toks)]
			}
		}
		out = append(out, st)
	}
	return out
}

type assembler struct {
	opts     Options
	symbols  map[string]uint64
	equs     map[string]int64
	out      []byte
	pc       uint64
	pass1    bool
	numInsts int
	// exprSym is set by evalTerm when the last expression referenced a label
	// (or a pass-1 forward reference). li/la use it to pick a fixed-size
	// materialization so both passes agree on layout.
	exprSym bool
}

func (a *assembler) errf(line srcLine, format string, args ...any) error {
	return fmt.Errorf("asm: line %d: %s: %s", line.num, line.text, fmt.Sprintf(format, args...))
}

func (a *assembler) scan(lines []stmt, pass1 bool) error {
	a.pass1 = pass1
	a.pc = a.opts.Base
	for i := range lines {
		st := &lines[i]
		if pass1 {
			for _, name := range st.labels {
				if _, dup := a.symbols[name]; dup {
					return a.errf(st.srcLine, "duplicate label %q", name)
				}
				a.symbols[name] = a.pc
			}
		}
		if st.mnemonic == "" {
			continue
		}
		var err error
		if st.mnemonic[0] == '.' {
			err = a.directive(st)
		} else {
			err = a.instruction(st.srcLine, st.mnemonic, st.ops)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (a *assembler) emit(b ...byte) {
	if !a.pass1 {
		a.out = append(a.out, b...)
	}
	a.pc += uint64(len(b))
}

func (a *assembler) emit32(v uint32) {
	a.numInsts++
	a.emit(byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (a *assembler) emit16(v uint16) {
	a.numInsts++
	a.emit(byte(v), byte(v>>8))
}

// emitInst encodes one instruction, compressing when allowed.
func (a *assembler) emitInst(line srcLine, in isa.Inst, mayCompress bool) error {
	if a.opts.Compress && mayCompress {
		if c, ok := isa.Compress(in); ok {
			a.emit16(c)
			return nil
		}
	}
	raw, err := isa.Encode(in)
	if err != nil {
		return a.errf(line, "%v", err)
	}
	a.emit32(raw)
	return nil
}

// maxImageBytes bounds an assembled image. The padding directives are the
// only statements whose output is not proportional to the source text, so
// they are where it is enforced; the biggest checked-in kernel is a few tens
// of kilobytes.
const maxImageBytes = 64 << 20

// pad extends the image by n zero bytes in one step.
func (a *assembler) pad(line srcLine, n uint64) error {
	if size := a.pc - a.opts.Base; size > maxImageBytes || n > maxImageBytes-size {
		return a.errf(line, "image would exceed %d bytes", maxImageBytes)
	}
	if !a.pass1 {
		a.out = append(a.out, make([]byte, n)...)
	}
	a.pc += n
	return nil
}

func (a *assembler) directive(st *stmt) error {
	line, dir, args := st.srcLine, st.mnemonic, st.ops
	switch dir {
	case ".org", ".align", ".space", ".zero":
		if len(args) == 0 {
			return a.errf(line, "%s needs an operand", dir)
		}
		v, err := a.evalImm(line, args[0])
		if err != nil {
			return err
		}
		switch dir {
		case ".org":
			target := uint64(v)
			if target < a.pc {
				return a.errf(line, ".org moves backwards (pc=%#x)", a.pc)
			}
			return a.pad(line, target-a.pc)
		case ".align":
			if v < 0 || v > 63 {
				return a.errf(line, "alignment 2^%d out of range", v)
			}
			align := uint64(1) << uint(v)
			return a.pad(line, -a.pc&(align-1))
		default:
			if v > 0 {
				return a.pad(line, uint64(v))
			}
		}
	case ".byte", ".half", ".word", ".dword", ".quad":
		size := 8
		switch dir {
		case ".byte":
			size = 1
		case ".half":
			size = 2
		case ".word":
			size = 4
		}
		for _, arg := range args {
			v, err := a.evalImm(line, arg)
			if err != nil {
				return err
			}
			var b [8]byte
			for i := 0; i < size; i++ {
				b[i] = byte(uint64(v) >> (8 * i))
			}
			a.emit(b[:size]...)
		}
	case ".ascii", ".asciz", ".string":
		s, err := strconv.Unquote(st.rest)
		if err != nil {
			return a.errf(line, "bad string literal")
		}
		a.emit([]byte(s)...)
		if dir != ".ascii" {
			a.emit(0)
		}
	case ".equ", ".set":
		if len(args) != 2 {
			return a.errf(line, ".equ needs name, value")
		}
		v, err := a.evalImm(line, args[1])
		if err != nil {
			return err
		}
		a.equs[args[0]] = v
	case ".global", ".globl", ".section", ".text", ".data", ".option", ".type", ".size":
		// accepted and ignored: flat single-section images
	default:
		return a.errf(line, "unknown directive %s", dir)
	}
	return nil
}

// evalImm evaluates an integer expression: decimal/hex literals, symbols,
// .equ constants, with +, - and * left-to-right.
func (a *assembler) evalImm(line srcLine, s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, a.errf(line, "empty expression")
	}
	// tokenize on +,-,* keeping operators; handle leading unary minus
	total := int64(0)
	op := byte('+')
	i := 0
	for i < len(s) {
		// read a term
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
		v, err := a.evalTerm(line, strings.TrimSpace(s[i:j]))
		if err != nil {
			return 0, err
		}
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
	return total, nil
}

func (a *assembler) evalTerm(line srcLine, t string) (int64, error) {
	if t == "" {
		return 0, a.errf(line, "empty term")
	}
	neg := false
	if t[0] == '-' {
		neg, t = true, strings.TrimSpace(t[1:])
	} else if t[0] == '+' {
		t = strings.TrimSpace(t[1:])
	}
	var v int64
	if t == "." {
		v = int64(a.pc)
	} else if n, ok := parseLiteral(t); ok {
		v = n
	} else if c, ok := a.equs[t]; ok {
		v = c
	} else if sym, ok := a.symbols[t]; ok {
		v = int64(sym)
		a.exprSym = true
	} else if a.pass1 {
		v = 0 // forward reference; resolved in pass 2
		a.exprSym = true
	} else {
		return 0, a.errf(line, "undefined symbol %q", t)
	}
	if neg {
		v = -v
	}
	return v, nil
}

// parseLiteral reads a Go-syntax integer literal, wrapping values above
// MaxInt64. Only a digit or a sign can start one, so a symbol name is turned
// away before strconv builds an error for it.
func parseLiteral(t string) (int64, bool) {
	if t == "" || (t[0] < '0' || t[0] > '9') && t[0] != '+' && t[0] != '-' {
		return 0, false
	}
	if n, err := strconv.ParseInt(t, 0, 64); err == nil {
		return n, true
	}
	n, err := strconv.ParseUint(t, 0, 64)
	return int64(n), err == nil
}

func (a *assembler) reg(line srcLine, s string) (isa.Reg, error) {
	r, ok := isa.ParseReg(strings.TrimSpace(s))
	if !ok {
		return 0, a.errf(line, "bad register %q", s)
	}
	return r, nil
}

// memOperand parses "imm(reg)" or "(reg)" or "label" (absolute, rare).
func (a *assembler) memOperand(line srcLine, s string) (off int64, base isa.Reg, err error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, a.errf(line, "bad memory operand %q", s)
	}
	base, err = a.reg(line, s[open+1:len(s)-1])
	if err != nil {
		return 0, 0, err
	}
	if open > 0 {
		off, err = a.evalImm(line, s[:open])
		if err != nil {
			return 0, 0, err
		}
	}
	return off, base, nil
}
