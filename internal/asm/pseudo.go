package asm

import "xt910/isa"

// pseudo expands the standard RISC-V pseudo-instructions into the Items the
// back end knows. It returns done=true when the mnemonic was handled.
func (p *parser) pseudo(line srcLine, mnemonic string, ops []string) (done bool, err error) {
	reg := func(i int) (isa.Reg, error) {
		if i >= len(ops) {
			return p.reg(line, "") // an absent operand reads as an empty one
		}
		return p.reg(line, ops[i])
	}
	need := func(n int) error {
		if len(ops) != n {
			return p.errf(line, "%s needs %d operands", mnemonic, n)
		}
		return nil
	}
	// rr emits op with the statement's two register operands placed by set.
	rr := func(op isa.Op, imm int64, set func(in *isa.Inst, a, b isa.Reg)) error {
		a, err := reg(0)
		if err != nil {
			return err
		}
		b, err := reg(1)
		if err != nil {
			return err
		}
		in := isa.NewInst(op)
		in.Imm = imm
		set(&in, a, b)
		return p.inst(in)
	}
	rdRs1 := func(in *isa.Inst, a, b isa.Reg) { in.Rd, in.Rs1 = a, b }
	rdZeroRs2 := func(in *isa.Inst, a, b isa.Reg) { in.Rd, in.Rs1, in.Rs2 = a, isa.Zero, b }
	// jump emits a jal rd to the label in ops[0].
	jump := func(rd isa.Reg) error {
		if err := need(1); err != nil {
			return err
		}
		in := isa.NewInst(isa.JAL)
		in.Rd = rd
		return p.branch(line, in, ops[0])
	}

	switch mnemonic {
	case "nop":
		in := isa.NewInst(isa.ADDI)
		in.Rd, in.Rs1 = isa.Zero, isa.Zero
		return true, p.inst(in)

	case "li", "la":
		if err := need(2); err != nil {
			return true, err
		}
		it := Item{Kind: KindLi, Line: p.line}
		if it.Inst.Rd, err = reg(0); err != nil {
			return true, err
		}
		if it.Inst.Imm, err = p.imm(line, ops[1]); err != nil {
			return true, err
		}
		if p.ref != "" {
			// Label-derived values use the fixed two-instruction sequence so
			// layout never depends on the (forward) value.
			it.Kind, it.Ref = KindLa, p.ref
		}
		return true, p.b.add(&it)

	case "mv":
		if err := need(2); err != nil {
			return true, err
		}
		return true, rr(isa.ADDI, 0, rdRs1)
	case "not":
		return true, rr(isa.XORI, -1, rdRs1)
	case "neg":
		return true, rr(isa.SUB, 0, rdZeroRs2)
	case "negw":
		return true, rr(isa.SUBW, 0, rdZeroRs2)
	case "sext.w":
		return true, rr(isa.ADDIW, 0, rdRs1)
	case "seqz":
		return true, rr(isa.SLTIU, 1, rdRs1)
	case "snez":
		return true, rr(isa.SLTU, 0, rdZeroRs2)

	case "zext.w":
		// no single base instruction: slli+srli pair (the gap §VIII-A's
		// custom lurw/lurd extension addresses for address generation)
		if err := rr(isa.SLLI, 32, rdRs1); err != nil {
			return true, err
		}
		return true, rr(isa.SRLI, 32, func(in *isa.Inst, a, _ isa.Reg) { in.Rd, in.Rs1 = a, a })

	case "beqz", "bnez", "blez", "bgez", "bltz", "bgtz":
		if err := need(2); err != nil {
			return true, err
		}
		rs, err := reg(0)
		if err != nil {
			return true, err
		}
		in := isa.NewInst(isa.BEQ)
		switch mnemonic {
		case "beqz":
			in.Op, in.Rs1, in.Rs2 = isa.BEQ, rs, isa.Zero
		case "bnez":
			in.Op, in.Rs1, in.Rs2 = isa.BNE, rs, isa.Zero
		case "blez":
			in.Op, in.Rs1, in.Rs2 = isa.BGE, isa.Zero, rs
		case "bgez":
			in.Op, in.Rs1, in.Rs2 = isa.BGE, rs, isa.Zero
		case "bltz":
			in.Op, in.Rs1, in.Rs2 = isa.BLT, rs, isa.Zero
		case "bgtz":
			in.Op, in.Rs1, in.Rs2 = isa.BLT, isa.Zero, rs
		}
		return true, p.branch(line, in, ops[1])

	case "bgt", "ble", "bgtu", "bleu":
		if err := need(3); err != nil {
			return true, err
		}
		rs1, err := reg(0)
		if err != nil {
			return true, err
		}
		rs2, err := reg(1)
		if err != nil {
			return true, err
		}
		var op isa.Op
		switch mnemonic {
		case "bgt":
			op = isa.BLT
		case "ble":
			op = isa.BGE
		case "bgtu":
			op = isa.BLTU
		case "bleu":
			op = isa.BGEU
		}
		in := isa.NewInst(op)
		in.Rs1, in.Rs2 = rs2, rs1 // swapped operands
		return true, p.branch(line, in, ops[2])

	case "j", "tail":
		return true, jump(isa.Zero)
	case "call":
		return true, jump(isa.RA)

	case "jr", "ret":
		in := isa.NewInst(isa.JALR)
		in.Rd, in.Rs1, in.Imm = isa.Zero, isa.RA, 0
		if mnemonic == "jr" {
			if err := need(1); err != nil {
				return true, err
			}
			if in.Rs1, err = reg(0); err != nil {
				return true, err
			}
		}
		return true, p.inst(in)

	case "csrr":
		if err := need(2); err != nil {
			return true, err
		}
		in := isa.NewInst(isa.CSRRS)
		in.Rs1 = isa.Zero
		if in.Rd, err = reg(0); err != nil {
			return true, err
		}
		if in.CSR, err = p.csrOperand(line, ops[1]); err != nil {
			return true, err
		}
		return true, p.inst(in)

	case "csrw":
		if err := need(2); err != nil {
			return true, err
		}
		in := isa.NewInst(isa.CSRRW)
		in.Rd = isa.Zero
		if in.CSR, err = p.csrOperand(line, ops[0]); err != nil {
			return true, err
		}
		if in.Rs1, err = reg(1); err != nil {
			return true, err
		}
		return true, p.inst(in)

	case "fmv.s", "fmv.d", "fneg.s", "fneg.d", "fabs.s", "fabs.d":
		if err := need(2); err != nil {
			return true, err
		}
		var op isa.Op
		switch mnemonic {
		case "fmv.s":
			op = isa.FSGNJS
		case "fmv.d":
			op = isa.FSGNJD
		case "fneg.s":
			op = isa.FSGNJNS
		case "fneg.d":
			op = isa.FSGNJND
		case "fabs.s":
			op = isa.FSGNJXS
		case "fabs.d":
			op = isa.FSGNJXD
		}
		return true, rr(op, 0, func(in *isa.Inst, a, b isa.Reg) { in.Rd, in.Rs1, in.Rs2 = a, b, b })
	}
	return false, nil
}
