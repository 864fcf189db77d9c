package asm

import "xt910/isa"

// pseudo expands the standard RISC-V pseudo-instructions. It returns
// done=true when the mnemonic was handled.
func (a *assembler) pseudo(line srcLine, mnemonic string, ops []string) (done bool, err error) {
	emit := func(op isa.Op, build func(*isa.Inst) error, compress bool) error {
		in := isa.NewInst(op)
		if build != nil {
			if err := build(&in); err != nil {
				return err
			}
		}
		return a.emitInst(line, in, compress && a.opts.Compress)
	}
	reg := func(i int) (isa.Reg, error) {
		if i >= len(ops) {
			return a.reg(line, "") // an absent operand reads as an empty one
		}
		return a.reg(line, ops[i])
	}
	need := func(n int) error {
		if len(ops) != n {
			return a.errf(line, "%s needs %d operands", mnemonic, n)
		}
		return nil
	}

	switch mnemonic {
	case "nop":
		return true, emit(isa.ADDI, func(in *isa.Inst) error {
			in.Rd, in.Rs1 = isa.Zero, isa.Zero
			return nil
		}, true)

	case "li", "la":
		if err := need(2); err != nil {
			return true, err
		}
		rd, err := reg(0)
		if err != nil {
			return true, err
		}
		a.exprSym = false
		v, err := a.evalImm(line, ops[1])
		if err != nil {
			return true, err
		}
		if a.exprSym {
			// Label-derived values use a fixed two-instruction sequence so
			// pass-1 sizing never depends on the (forward) value.
			return true, a.liFixed(line, rd, v)
		}
		return true, a.li(line, rd, v)

	case "mv":
		if err := need(2); err != nil {
			return true, err
		}
		return true, emit(isa.ADDI, func(in *isa.Inst) error {
			var e error
			if in.Rd, e = reg(0); e != nil {
				return e
			}
			in.Rs1, e = reg(1)
			return e
		}, true)

	case "not":
		return true, emit(isa.XORI, func(in *isa.Inst) error {
			var e error
			if in.Rd, e = reg(0); e != nil {
				return e
			}
			in.Rs1, e = reg(1)
			in.Imm = -1
			return e
		}, false)

	case "neg", "negw":
		op := isa.SUB
		if mnemonic == "negw" {
			op = isa.SUBW
		}
		return true, emit(op, func(in *isa.Inst) error {
			var e error
			if in.Rd, e = reg(0); e != nil {
				return e
			}
			in.Rs1 = isa.Zero
			in.Rs2, e = reg(1)
			return e
		}, false)

	case "sext.w":
		return true, emit(isa.ADDIW, func(in *isa.Inst) error {
			var e error
			if in.Rd, e = reg(0); e != nil {
				return e
			}
			in.Rs1, e = reg(1)
			return e
		}, true)

	case "zext.w":
		// no single base instruction: slli+srli pair (the gap §VIII-A's
		// custom lurw/lurd extension addresses for address generation)
		rd, err := reg(0)
		if err != nil {
			return true, err
		}
		rs, err := reg(1)
		if err != nil {
			return true, err
		}
		in := isa.NewInst(isa.SLLI)
		in.Rd, in.Rs1, in.Imm = rd, rs, 32
		if err := a.emitInst(line, in, a.opts.Compress); err != nil {
			return true, err
		}
		in = isa.NewInst(isa.SRLI)
		in.Rd, in.Rs1, in.Imm = rd, rd, 32
		return true, a.emitInst(line, in, a.opts.Compress)

	case "seqz":
		return true, emit(isa.SLTIU, func(in *isa.Inst) error {
			var e error
			if in.Rd, e = reg(0); e != nil {
				return e
			}
			in.Rs1, e = reg(1)
			in.Imm = 1
			return e
		}, false)

	case "snez":
		return true, emit(isa.SLTU, func(in *isa.Inst) error {
			var e error
			if in.Rd, e = reg(0); e != nil {
				return e
			}
			in.Rs1 = isa.Zero
			in.Rs2, e = reg(1)
			return e
		}, false)

	case "beqz", "bnez", "blez", "bgez", "bltz", "bgtz":
		if err := need(2); err != nil {
			return true, err
		}
		rs, err := reg(0)
		if err != nil {
			return true, err
		}
		target, err := a.evalImm(line, ops[1])
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
		in.Imm = target - int64(a.pc)
		return true, a.emitInst(line, in, false)

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
		target, err := a.evalImm(line, ops[2])
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
		in.Imm = target - int64(a.pc)
		return true, a.emitInst(line, in, false)

	case "j":
		if err := need(1); err != nil {
			return true, err
		}
		target, err := a.evalImm(line, ops[0])
		if err != nil {
			return true, err
		}
		in := isa.NewInst(isa.JAL)
		in.Rd = isa.Zero
		in.Imm = target - int64(a.pc)
		return true, a.emitInst(line, in, false)

	case "jr":
		if err := need(1); err != nil {
			return true, err
		}
		rs, err := reg(0)
		if err != nil {
			return true, err
		}
		in := isa.NewInst(isa.JALR)
		in.Rd, in.Rs1, in.Imm = isa.Zero, rs, 0
		return true, a.emitInst(line, in, a.opts.Compress)

	case "call":
		if err := need(1); err != nil {
			return true, err
		}
		target, err := a.evalImm(line, ops[0])
		if err != nil {
			return true, err
		}
		in := isa.NewInst(isa.JAL)
		in.Rd = isa.RA
		in.Imm = target - int64(a.pc)
		return true, a.emitInst(line, in, false)

	case "tail":
		if err := need(1); err != nil {
			return true, err
		}
		target, err := a.evalImm(line, ops[0])
		if err != nil {
			return true, err
		}
		in := isa.NewInst(isa.JAL)
		in.Rd = isa.Zero
		in.Imm = target - int64(a.pc)
		return true, a.emitInst(line, in, false)

	case "ret":
		in := isa.NewInst(isa.JALR)
		in.Rd, in.Rs1, in.Imm = isa.Zero, isa.RA, 0
		return true, a.emitInst(line, in, a.opts.Compress)

	case "csrr":
		if err := need(2); err != nil {
			return true, err
		}
		rd, err := reg(0)
		if err != nil {
			return true, err
		}
		csr, err := a.csrOperand(line, ops[1])
		if err != nil {
			return true, err
		}
		in := isa.NewInst(isa.CSRRS)
		in.Rd, in.Rs1, in.CSR = rd, isa.Zero, csr
		return true, a.emitInst(line, in, false)

	case "csrw":
		if err := need(2); err != nil {
			return true, err
		}
		csr, err := a.csrOperand(line, ops[0])
		if err != nil {
			return true, err
		}
		rs, err := reg(1)
		if err != nil {
			return true, err
		}
		in := isa.NewInst(isa.CSRRW)
		in.Rd, in.Rs1, in.CSR = isa.Zero, rs, csr
		return true, a.emitInst(line, in, false)

	case "fmv.s", "fmv.d", "fneg.s", "fneg.d", "fabs.s", "fabs.d":
		if err := need(2); err != nil {
			return true, err
		}
		rd, err := reg(0)
		if err != nil {
			return true, err
		}
		rs, err := reg(1)
		if err != nil {
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
		in := isa.NewInst(op)
		in.Rd, in.Rs1, in.Rs2 = rd, rs, rs
		return true, a.emitInst(line, in, false)
	}
	return false, nil
}

// liFixed emits the fixed-size lui+addiw pair used for label addresses
// (which must fit in 32 bits — the model's physical address space does).
func (a *assembler) liFixed(line srcLine, rd isa.Reg, v int64) error {
	if v < -(1<<31) || v >= 1<<31 {
		return a.errf(line, "label value %#x out of la range", v)
	}
	lo := v << 52 >> 52
	hi := v - lo
	in := isa.NewInst(isa.LUI)
	in.Rd, in.Imm = rd, int64(int32(hi))
	if err := a.emitInst(line, in, false); err != nil {
		return err
	}
	in = isa.NewInst(isa.ADDIW)
	in.Rd, in.Rs1, in.Imm = rd, rd, lo
	return a.emitInst(line, in, false)
}

// li materializes an arbitrary 64-bit constant, mirroring the GNU assembler's
// expansion strategy.
func (a *assembler) li(line srcLine, rd isa.Reg, v int64) error {
	// 12-bit immediate
	if v >= -2048 && v < 2048 {
		in := isa.NewInst(isa.ADDI)
		in.Rd, in.Rs1, in.Imm = rd, isa.Zero, v
		return a.emitInst(line, in, a.opts.Compress)
	}
	// 32-bit: lui (+ addiw)
	if v >= -(1<<31) && v < 1<<31 {
		lo := v << 52 >> 52
		hi := v - lo
		in := isa.NewInst(isa.LUI)
		in.Rd, in.Imm = rd, int64(int32(hi))
		if err := a.emitInst(line, in, a.opts.Compress); err != nil {
			return err
		}
		if lo != 0 {
			in = isa.NewInst(isa.ADDIW)
			in.Rd, in.Rs1, in.Imm = rd, rd, lo
			return a.emitInst(line, in, a.opts.Compress)
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
	if err := a.li(line, rd, hi>>uint(shift)); err != nil {
		return err
	}
	in := isa.NewInst(isa.SLLI)
	in.Rd, in.Rs1, in.Imm = rd, rd, int64(shift)
	if err := a.emitInst(line, in, a.opts.Compress); err != nil {
		return err
	}
	if lo != 0 {
		in = isa.NewInst(isa.ADDI)
		in.Rd, in.Rs1, in.Imm = rd, rd, lo
		return a.emitInst(line, in, a.opts.Compress)
	}
	return nil
}
