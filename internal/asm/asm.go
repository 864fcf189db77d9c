// Package asm is the assembler of the XT-910 toolchain model: one back end
// (Builder: lays a list of Items out, encodes each instruction once and
// patches label references in afterwards) behind two front ends. The text
// front end, Assemble, accepts the GNU-flavoured subset the benchmark kernels
// are written in: labels, data directives, the standard pseudo-instructions
// (li, la, call, beqz, …), the vector 0.7.1 mnemonics, and the XT-910 custom
// extensions; it reads each statement once. The other front end is any
// program that makes Items itself, as the cosim fuzz generator does;
// AppendSource writes such Items back out as text. With Compress enabled the
// back end emits RVC encodings where a compressed form exists, reproducing
// the code density the XT-910 front end is built around.
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
	// so that an instruction's size never depends on a label's address).
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
	// a line of source is a few times its bytes in the image
	return NewBuilder(opts, len(src)/4).parse(splitLines(src))
}

// parse runs the text front end over lines, feeding b, and finishes the image.
func (b *Builder) parse(lines []stmt) (*Program, error) {
	b.lines = lines
	p := parser{b: b}
	for i := range lines {
		p.line = int32(i + 1)
		if err := p.statement(&lines[i]); err != nil {
			return nil, err
		}
	}
	return b.Program()
}

// srcLine is what an error message quotes: the 1-based line number and the
// line without its comment and surrounding space.
type srcLine struct {
	num  int
	text string
}

// stmt is one non-empty source line, cut once by splitLines; the parser
// walks these records and never looks at the text again.
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

// parser is the text front end: it turns each statement into Items and hands
// them to the back end as it goes, so `.` and the labels defined so far have
// addresses while the next statement is read.
type parser struct {
	b    *Builder
	line int32 // the statement being read, as Item.Line counts
	// ref is the one operand of the current statement that names a label
	// (set by imm): the Item made from the statement carries it as its Ref.
	ref string
}

func (p *parser) errf(line srcLine, format string, args ...any) error {
	return fmt.Errorf("asm: line %d: %s: %s", line.num, line.text, fmt.Sprintf(format, args...))
}

func (p *parser) statement(st *stmt) error {
	for _, name := range st.labels {
		if err := p.b.add(&Item{Kind: KindLabel, Ref: name, Line: p.line}); err != nil {
			return err
		}
	}
	if st.mnemonic == "" {
		return nil
	}
	p.ref = ""
	if st.mnemonic[0] == '.' {
		return p.directive(st)
	}
	return p.instruction(st.srcLine, st.mnemonic, st.ops)
}

// inst hands the back end one instruction, with the statement's deferred
// operand if it has one.
func (p *parser) inst(in isa.Inst) error {
	return p.b.add(&Item{Kind: KindInst, Inst: in, Ref: p.ref, Line: p.line})
}

// branch hands the back end a branch or jal to the absolute address target
// evaluates to.
func (p *parser) branch(line srcLine, in isa.Inst, target string) error {
	var err error
	if in.Imm, err = p.imm(line, target); err != nil {
		return err
	}
	return p.b.add(&Item{Kind: KindBranch, Inst: in, Ref: p.ref, Line: p.line})
}

// pad hands the back end one padding item.
func (p *parser) pad(kind Kind, n int64) error {
	it := Item{Kind: kind, Line: p.line}
	it.Inst.Imm = n
	return p.b.add(&it)
}

func (p *parser) directive(st *stmt) error {
	line, dir, args := st.srcLine, st.mnemonic, st.ops
	switch dir {
	case ".org", ".align", ".space", ".zero":
		if len(args) == 0 {
			return p.errf(line, "%s needs an operand", dir)
		}
		// Layout depends on the value, so it must be known here: labels
		// defined so far count, later ones do not.
		v, _, err := p.b.eval(args[0], p.b.pc(), evalFinal, 0)
		if err != nil {
			return p.errf(line, "%v", err)
		}
		switch dir {
		case ".org":
			return p.pad(KindOrg, v)
		case ".align":
			return p.pad(KindAlign, v)
		}
		return p.pad(KindSpace, v)
	case ".byte", ".half", ".word", ".dword", ".quad":
		it := Item{Kind: KindData, Size: 8, Line: p.line}
		switch dir {
		case ".byte":
			it.Size = 1
		case ".half":
			it.Size = 2
		case ".word":
			it.Size = 4
		}
		// One Item a word, so that each sees its own address as `.`.
		for _, arg := range args {
			v, err := p.imm(line, arg)
			if err != nil {
				return err
			}
			p.b.word[0] = v
			it.Words, it.Ref = p.b.word[:], p.ref
			if err := p.b.add(&it); err != nil {
				return err
			}
			p.ref = ""
		}
	case ".ascii", ".asciz", ".string":
		s, err := strconv.Unquote(st.rest)
		if err != nil {
			return p.errf(line, "bad string literal")
		}
		p.b.out = append(p.b.out, s...)
		if dir != ".ascii" {
			p.b.out = append(p.b.out, 0)
		}
	case ".equ", ".set":
		if len(args) != 2 {
			return p.errf(line, ".equ needs name, value")
		}
		pc := p.b.pc()
		v, deferred, err := p.b.eval(args[1], pc, evalEqu, 0)
		if err != nil {
			return p.errf(line, "%v", err)
		}
		if p.b.equs == nil {
			p.b.equs = map[string]equ{}
		}
		e := equ{val: v}
		if deferred {
			e = equ{ref: args[1], pc: pc, line: p.line}
			p.b.lateEqus = append(p.b.lateEqus, e)
		}
		p.b.equs[args[0]] = e
	case ".global", ".globl", ".section", ".text", ".data", ".option", ".type", ".size":
		// accepted and ignored: flat single-section images
	default:
		return p.errf(line, "unknown directive %s", dir)
	}
	return nil
}

// imm evaluates an operand that may name a label. If it does, the expression
// becomes the statement's deferred reference (p.ref) and the value returned
// is a placeholder; a statement has room for one.
func (p *parser) imm(line srcLine, s string) (int64, error) {
	v, deferred, err := p.b.eval(s, p.b.pc(), evalOperand, 0)
	if err != nil {
		return 0, p.errf(line, "%v", err)
	}
	if !deferred {
		return v, nil
	}
	if p.ref != "" {
		return 0, p.errf(line, "more than one operand names a label")
	}
	p.ref = strings.TrimSpace(s)
	return 0, nil
}

// constImm evaluates an operand that is packed into an instruction field
// with others, so it must be known when the statement is read.
func (p *parser) constImm(line srcLine, s string) (int64, error) {
	v, deferred, err := p.b.eval(s, p.b.pc(), evalOperand, 0)
	if err != nil {
		return 0, p.errf(line, "%v", err)
	}
	if deferred {
		return 0, p.errf(line, "operand %q must be a constant", strings.TrimSpace(s))
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

func (p *parser) reg(line srcLine, s string) (isa.Reg, error) {
	r, ok := isa.ParseReg(strings.TrimSpace(s))
	if !ok {
		return 0, p.errf(line, "bad register %q", s)
	}
	return r, nil
}

// memOperand parses "imm(reg)" or "(reg)" or "label" (absolute, rare).
func (p *parser) memOperand(line srcLine, s string) (off int64, base isa.Reg, err error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, p.errf(line, "bad memory operand %q", s)
	}
	base, err = p.reg(line, s[open+1:len(s)-1])
	if err != nil {
		return 0, 0, err
	}
	if open > 0 {
		off, err = p.imm(line, s[:open])
		if err != nil {
			return 0, 0, err
		}
	}
	return off, base, nil
}
