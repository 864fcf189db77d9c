package asm

import (
	"strings"

	"xt910/isa"
)

// jalrShort are the ways to write jalr beside the canonical
// "jalr rd, off(rs1)", indexed by operand count: "jalr rs1" (rd = ra),
// "jalr rd, rs1" and "jalr rd, rs1, off".
var jalrShort = [4][]isa.Operand{
	1: {isa.Rs1X},
	2: {isa.RdX, isa.Rs1X},
	3: {isa.RdX, isa.Rs1X, isa.ImmI},
}

// instruction assembles one mnemonic + operand list: pseudo-instructions are
// expanded first; anything else is parsed operand by operand, as the op's
// format in isa lists them.
func (p *parser) instruction(line srcLine, mnemonic string, ops []string) error {
	if done, err := p.pseudo(line, mnemonic, ops); done || err != nil {
		return err
	}
	op, ok := isa.ParseOp(mnemonic)
	if !ok {
		return p.errf(line, "unknown mnemonic %q", mnemonic)
	}
	in := isa.NewInst(op)
	opds := op.Operands()
	n := len(ops)
	switch {
	case op == isa.JAL && n == 1: // jal target
		in.Rd, opds = isa.RA, opds[1:]
	case op == isa.JALR && n >= 1 && n <= 3 && !strings.Contains(ops[n-1], "("):
		if n == 1 {
			in.Rd = isa.RA
		}
		opds = jalrShort[n]
	case n > 0 && ops[n-1] == "v0.t" && len(opds) > 0 && isMask(opds[len(opds)-1]):
		in.Masked, ops = true, ops[:n-1]
	}

	// Count before parsing: least and most are how many operands the source
	// may write; they differ by the optional registers (all or none) and by
	// vtype, which takes however many tokens are left.
	least, most := 0, 0
	for _, o := range opds {
		switch o {
		case isa.VM, isa.VMemMask:
		case isa.Rs1Opt, isa.Rs2Opt:
			most++
		case isa.MsbLsb:
			least, most = least+2, most+2
		case isa.VTypeImm:
			most = max(most, len(ops))
		default:
			least, most = least+1, most+1
		}
	}
	switch n := len(ops); {
	case n == least || n == most:
	case most > least:
		return p.errf(line, "%v needs %d or %d operands", op, least, most)
	default:
		return p.errf(line, "%v needs %d operands", op, least)
	}

	kind := KindInst
	for _, o := range opds {
		if o == isa.VTypeImm { // every token left: "e32, m2", either, or neither
			vt, err := isa.ParseVTypeArgs(ops)
			if err != nil {
				return p.errf(line, "%v", err)
			}
			in.Imm = int64(vt)
			break
		}
		if len(ops) == 0 {
			break // the optional registers or the mask, left out
		}
		tok := ops[0]
		ops = ops[1:]
		var err error
		switch o {
		case isa.MemI, isa.MemS:
			in.Imm, in.Rs1, err = p.memOperand(line, tok)
		case isa.Base:
			_, in.Rs1, err = p.memOperand(line, tok)
		case isa.ImmB, isa.ImmJ: // a target: the back end makes it pc-relative
			kind = KindBranch
			in.Imm, err = p.imm(line, tok)
		case isa.ImmU: // written as the upper 20 bits; the back end checks the range and sign-extends
			in.Imm, err = p.imm(line, tok)
			in.Imm <<= 12
		case isa.Shift2:
			in.Imm, err = p.constImm(line, tok)
		case isa.MsbLsb:
			in.Imm, err = p.bitRange(line, tok, ops[0])
			ops = ops[1:]
		case isa.CSRNum:
			in.CSR, err = p.csrOperand(line, tok)
		default:
			if r := o.Reg(&in); r != nil {
				*r, err = p.reg(line, tok)
			} else {
				in.Imm, err = p.imm(line, tok)
			}
		}
		if err != nil {
			return err
		}
	}
	return p.b.add(&Item{Kind: kind, Inst: in, Ref: p.ref, Line: p.line})
}

func isMask(o isa.Operand) bool { return o == isa.VM || o == isa.VMemMask }

// bitRange packs ext/extu's "msb, lsb" into one immediate; both must be known
// when the statement is read.
func (p *parser) bitRange(line srcLine, msbTok, lsbTok string) (int64, error) {
	msb, err := p.constImm(line, msbTok)
	if err != nil {
		return 0, err
	}
	lsb, err := p.constImm(line, lsbTok)
	if err != nil {
		return 0, err
	}
	if msb < 0 || msb > 63 || lsb < 0 || lsb > 63 {
		return 0, p.errf(line, "bit positions %d, %d out of range [0, 63]", msb, lsb)
	}
	return msb<<6 | lsb, nil
}

func (p *parser) csrOperand(line srcLine, s string) (uint16, error) {
	s = strings.TrimSpace(s)
	if n, ok := isa.ParseCSR(s); ok {
		return n, nil
	}
	v, err := p.constImm(line, s)
	if err != nil || v < 0 || v > 0xFFF {
		return 0, p.errf(line, "bad CSR %q", s)
	}
	return uint16(v), nil
}
