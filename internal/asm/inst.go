package asm

import (
	"strings"

	"xt910/isa"
)

// instruction assembles one mnemonic + operand list, expanding pseudo
// instructions first.
func (p *parser) instruction(line srcLine, mnemonic string, ops []string) error {
	if done, err := p.pseudo(line, mnemonic, ops); done || err != nil {
		return err
	}
	op, ok := isa.ParseOp(mnemonic)
	if !ok {
		return p.errf(line, "unknown mnemonic %q", mnemonic)
	}
	in := isa.NewInst(op)

	switch op.Class() {
	case isa.ClassALU, isa.ClassMul, isa.ClassDiv:
		return p.asmALU(line, op, in, ops)

	case isa.ClassBranch:
		if len(ops) != 3 {
			return p.errf(line, "branch needs rs1, rs2, target")
		}
		var err error
		if in.Rs1, err = p.reg(line, ops[0]); err != nil {
			return err
		}
		if in.Rs2, err = p.reg(line, ops[1]); err != nil {
			return err
		}
		return p.branch(line, in, ops[2])

	case isa.ClassJump:
		return p.asmJump(line, op, in, ops)

	case isa.ClassLoad:
		return p.asmLoad(line, op, in, ops)

	case isa.ClassStore:
		return p.asmStore(line, op, in, ops)

	case isa.ClassAMO:
		return p.asmAMO(line, op, in, ops)

	case isa.ClassFPU:
		return p.asmFPU(line, op, in, ops)

	case isa.ClassCSR:
		return p.asmCSR(line, op, in, ops)

	case isa.ClassSys:
		if op == isa.SFENCEVMA && len(ops) == 2 {
			var err error
			if in.Rs1, err = p.reg(line, ops[0]); err != nil {
				return err
			}
			if in.Rs2, err = p.reg(line, ops[1]); err != nil {
				return err
			}
		}
		return p.inst(in)

	case isa.ClassVSet:
		return p.asmVSet(line, op, in, ops)

	case isa.ClassVALU, isa.ClassVFPU, isa.ClassVLoad, isa.ClassVStore:
		return p.asmVector(line, op, in, ops)

	case isa.ClassCacheOp:
		if len(ops) == 1 {
			var err error
			if in.Rs1, err = p.reg(line, ops[0]); err != nil {
				return err
			}
		}
		return p.inst(in)
	}
	return p.errf(line, "cannot assemble %v", op)
}

func (p *parser) asmALU(line srcLine, op isa.Op, in isa.Inst, ops []string) error {
	var err error
	switch op {
	case isa.LUI, isa.AUIPC:
		if len(ops) != 2 {
			return p.errf(line, "%v needs rd, imm20", op)
		}
		if in.Rd, err = p.reg(line, ops[0]); err != nil {
			return err
		}
		v, err := p.imm(line, ops[1])
		if err != nil {
			return err
		}
		in.Imm = v << 12 // the back end checks the 20-bit range and sign-extends
		return p.inst(in)
	case isa.XADDSL:
		if len(ops) != 4 {
			return p.errf(line, "addsl needs rd, rs1, rs2, shift")
		}
		if in.Rd, err = p.reg(line, ops[0]); err != nil {
			return err
		}
		if in.Rs1, err = p.reg(line, ops[1]); err != nil {
			return err
		}
		if in.Rs2, err = p.reg(line, ops[2]); err != nil {
			return err
		}
		if in.Imm, err = p.constImm(line, ops[3]); err != nil {
			return err
		}
		return p.inst(in)
	case isa.XEXT, isa.XEXTU:
		if len(ops) != 4 {
			return p.errf(line, "%v needs rd, rs1, msb, lsb", op)
		}
		if in.Rd, err = p.reg(line, ops[0]); err != nil {
			return err
		}
		if in.Rs1, err = p.reg(line, ops[1]); err != nil {
			return err
		}
		msb, err := p.constImm(line, ops[2])
		if err != nil {
			return err
		}
		lsb, err := p.constImm(line, ops[3])
		if err != nil {
			return err
		}
		if msb < 0 || msb > 63 || lsb < 0 || lsb > 63 {
			return p.errf(line, "bit positions %d, %d out of range [0, 63]", msb, lsb)
		}
		in.Imm = msb<<6 | lsb
		return p.inst(in)
	case isa.XFF0, isa.XFF1, isa.XREV, isa.XTSTNBZ:
		if len(ops) != 2 {
			return p.errf(line, "%v needs rd, rs1", op)
		}
		if in.Rd, err = p.reg(line, ops[0]); err != nil {
			return err
		}
		if in.Rs1, err = p.reg(line, ops[1]); err != nil {
			return err
		}
		return p.inst(in)
	}
	if len(ops) != 3 {
		return p.errf(line, "%v needs 3 operands", op)
	}
	if in.Rd, err = p.reg(line, ops[0]); err != nil {
		return err
	}
	if in.Rs1, err = p.reg(line, ops[1]); err != nil {
		return err
	}
	// third operand: register or immediate
	if r, ok := isa.ParseReg(ops[2]); ok {
		in.Rs2 = r
	} else {
		if in.Imm, err = p.imm(line, ops[2]); err != nil {
			return err
		}
	}
	return p.inst(in)
}

func (p *parser) asmJump(line srcLine, op isa.Op, in isa.Inst, ops []string) error {
	var err error
	if op == isa.JAL {
		switch len(ops) {
		case 1: // jal target → rd=ra
			in.Rd = isa.RA
			return p.branch(line, in, ops[0])
		case 2:
			if in.Rd, err = p.reg(line, ops[0]); err != nil {
				return err
			}
			return p.branch(line, in, ops[1])
		}
		return p.errf(line, "jal needs [rd,] target")
	}
	// jalr forms: "jalr rs1" | "jalr rd, rs1, imm" | "jalr rd, imm(rs1)"
	switch len(ops) {
	case 1:
		in.Rd = isa.RA
		if in.Rs1, err = p.reg(line, ops[0]); err != nil {
			return err
		}
	case 2:
		if in.Rd, err = p.reg(line, ops[0]); err != nil {
			return err
		}
		if strings.Contains(ops[1], "(") {
			off, base, err := p.memOperand(line, ops[1])
			if err != nil {
				return err
			}
			in.Imm, in.Rs1 = off, base
		} else if in.Rs1, err = p.reg(line, ops[1]); err != nil {
			return err
		}
	case 3:
		if in.Rd, err = p.reg(line, ops[0]); err != nil {
			return err
		}
		if in.Rs1, err = p.reg(line, ops[1]); err != nil {
			return err
		}
		if in.Imm, err = p.imm(line, ops[2]); err != nil {
			return err
		}
	default:
		return p.errf(line, "bad jalr operands")
	}
	return p.inst(in)
}

func (p *parser) asmLoad(line srcLine, op isa.Op, in isa.Inst, ops []string) error {
	var err error
	switch op {
	case isa.XLRB, isa.XLRH, isa.XLRW, isa.XLRD, isa.XLURB, isa.XLURH, isa.XLURW:
		if len(ops) != 4 {
			return p.errf(line, "%v needs rd, rs1, rs2, shift", op)
		}
		if in.Rd, err = p.reg(line, ops[0]); err != nil {
			return err
		}
		if in.Rs1, err = p.reg(line, ops[1]); err != nil {
			return err
		}
		if in.Rs2, err = p.reg(line, ops[2]); err != nil {
			return err
		}
		if in.Imm, err = p.constImm(line, ops[3]); err != nil {
			return err
		}
		return p.inst(in)
	}
	if len(ops) != 2 {
		return p.errf(line, "%v needs rd, off(rs1)", op)
	}
	if in.Rd, err = p.reg(line, ops[0]); err != nil {
		return err
	}
	off, base, err := p.memOperand(line, ops[1])
	if err != nil {
		return err
	}
	in.Imm, in.Rs1 = off, base
	return p.inst(in)
}

func (p *parser) asmStore(line srcLine, op isa.Op, in isa.Inst, ops []string) error {
	var err error
	switch op {
	case isa.XSRB, isa.XSRH, isa.XSRW, isa.XSRD:
		if len(ops) != 4 {
			return p.errf(line, "%v needs rdata, rs1, rs2, shift", op)
		}
		if in.Rd, err = p.reg(line, ops[0]); err != nil {
			return err
		}
		if in.Rs1, err = p.reg(line, ops[1]); err != nil {
			return err
		}
		if in.Rs2, err = p.reg(line, ops[2]); err != nil {
			return err
		}
		if in.Imm, err = p.constImm(line, ops[3]); err != nil {
			return err
		}
		return p.inst(in)
	}
	if len(ops) != 2 {
		return p.errf(line, "%v needs rs2, off(rs1)", op)
	}
	if in.Rs2, err = p.reg(line, ops[0]); err != nil {
		return err
	}
	off, base, err := p.memOperand(line, ops[1])
	if err != nil {
		return err
	}
	in.Imm, in.Rs1 = off, base
	return p.inst(in)
}

func (p *parser) asmAMO(line srcLine, op isa.Op, in isa.Inst, ops []string) error {
	var err error
	if op == isa.LRW || op == isa.LRD {
		if len(ops) != 2 {
			return p.errf(line, "%v needs rd, (rs1)", op)
		}
		if in.Rd, err = p.reg(line, ops[0]); err != nil {
			return err
		}
		_, base, err := p.memOperand(line, ops[1])
		if err != nil {
			return err
		}
		in.Rs1 = base
		return p.inst(in)
	}
	if len(ops) != 3 {
		return p.errf(line, "%v needs rd, rs2, (rs1)", op)
	}
	if in.Rd, err = p.reg(line, ops[0]); err != nil {
		return err
	}
	if in.Rs2, err = p.reg(line, ops[1]); err != nil {
		return err
	}
	_, base, err := p.memOperand(line, ops[2])
	if err != nil {
		return err
	}
	in.Rs1 = base
	return p.inst(in)
}

func (p *parser) asmFPU(line srcLine, op isa.Op, in isa.Inst, ops []string) error {
	var err error
	regs := make([]isa.Reg, len(ops))
	for i, o := range ops {
		if regs[i], err = p.reg(line, o); err != nil {
			return err
		}
	}
	switch len(regs) {
	case 2:
		in.Rd, in.Rs1 = regs[0], regs[1]
	case 3:
		in.Rd, in.Rs1, in.Rs2 = regs[0], regs[1], regs[2]
	case 4:
		in.Rd, in.Rs1, in.Rs2, in.Rs3 = regs[0], regs[1], regs[2], regs[3]
	default:
		return p.errf(line, "bad FP operand count")
	}
	return p.inst(in)
}

func (p *parser) asmCSR(line srcLine, op isa.Op, in isa.Inst, ops []string) error {
	if len(ops) != 3 {
		return p.errf(line, "%v needs rd, csr, src", op)
	}
	var err error
	if in.Rd, err = p.reg(line, ops[0]); err != nil {
		return err
	}
	csr, err := p.csrOperand(line, ops[1])
	if err != nil {
		return err
	}
	in.CSR = csr
	if op == isa.CSRRWI || op == isa.CSRRSI || op == isa.CSRRCI {
		if in.Imm, err = p.imm(line, ops[2]); err != nil {
			return err
		}
	} else if in.Rs1, err = p.reg(line, ops[2]); err != nil {
		return err
	}
	return p.inst(in)
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

func (p *parser) asmVSet(line srcLine, op isa.Op, in isa.Inst, ops []string) error {
	var err error
	if len(ops) < 2 {
		return p.errf(line, "vsetvl/vsetvli need at least rd, rs1")
	}
	if in.Rd, err = p.reg(line, ops[0]); err != nil {
		return err
	}
	if in.Rs1, err = p.reg(line, ops[1]); err != nil {
		return err
	}
	if op == isa.VSETVL {
		if len(ops) != 3 {
			return p.errf(line, "vsetvl needs rd, rs1, rs2")
		}
		if in.Rs2, err = p.reg(line, ops[2]); err != nil {
			return err
		}
		return p.inst(in)
	}
	vt, err := isa.ParseVTypeArgs(ops[2:])
	if err != nil {
		return p.errf(line, "%v", err)
	}
	in.Imm = int64(vt)
	return p.inst(in)
}

// asmVector handles the uniform operand order this toolchain uses:
// .vv/.vi forms are "op vd, vs2, vs1/imm"; .vx forms are "op vd, vs2, rs1";
// loads are "op vd, (rs1)[, rs2stride]", stores "op vs, (rs1)[, rs2stride]".
func (p *parser) asmVector(line srcLine, op isa.Op, in isa.Inst, ops []string) error {
	var err error
	// a trailing "v0.t" operand marks a masked form
	if n := len(ops); n > 0 && ops[n-1] == "v0.t" {
		in.Masked = true
		ops = ops[:n-1]
	}
	if len(ops) < 2 {
		// every form reads two operands before it counts them: an absent
		// operand reads as an empty one
		ops = append(ops[:len(ops):len(ops)], "", "")[:2]
	}
	switch op {
	case isa.VLE, isa.VLSE, isa.VLXEI:
		if in.Rd, err = p.reg(line, ops[0]); err != nil {
			return err
		}
		_, base, err := p.memOperand(line, ops[1])
		if err != nil {
			return err
		}
		in.Rs1 = base
		if op != isa.VLE {
			if len(ops) != 3 {
				return p.errf(line, "%v needs vd, (rs1), rs2", op)
			}
			if in.Rs2, err = p.reg(line, ops[2]); err != nil {
				return err
			}
			// loads keep the vector dest in Rd; the stride register (vlse)
			// or index vector (vlxei) goes in Rs2.
		}
		return p.inst(in)
	case isa.VSE, isa.VSSE, isa.VSXEI:
		if in.Rs2, err = p.reg(line, ops[0]); err != nil { // data vector
			return err
		}
		_, base, err := p.memOperand(line, ops[1])
		if err != nil {
			return err
		}
		in.Rs1 = base
		if op != isa.VSE {
			if len(ops) != 3 {
				return p.errf(line, "%v needs vs, (rs1), rs2", op)
			}
			if in.Rs3, err = p.reg(line, ops[2]); err != nil {
				return err
			}
		}
		return p.inst(in)
	case isa.VMVXS: // vmv.x.s rd, vs2
		if in.Rd, err = p.reg(line, ops[0]); err != nil {
			return err
		}
		if in.Rs2, err = p.reg(line, ops[1]); err != nil {
			return err
		}
		return p.inst(in)
	case isa.VMVSX, isa.VMVVX: // vmv.s.x / vmv.v.x vd, rs1
		if in.Rd, err = p.reg(line, ops[0]); err != nil {
			return err
		}
		if in.Rs1, err = p.reg(line, ops[1]); err != nil {
			return err
		}
		return p.inst(in)
	case isa.VMVVV: // vmv.v.v vd, vs1
		if in.Rd, err = p.reg(line, ops[0]); err != nil {
			return err
		}
		if in.Rs1, err = p.reg(line, ops[1]); err != nil {
			return err
		}
		return p.inst(in)
	}
	if len(ops) != 3 {
		return p.errf(line, "%v needs vd, vs2, vs1/rs1/imm", op)
	}
	if in.Rd, err = p.reg(line, ops[0]); err != nil {
		return err
	}
	if in.Rs2, err = p.reg(line, ops[1]); err != nil {
		return err
	}
	if op == isa.VADDVI {
		if in.Imm, err = p.imm(line, ops[2]); err != nil {
			return err
		}
		return p.inst(in)
	}
	if in.Rs1, err = p.reg(line, ops[2]); err != nil {
		return err
	}
	return p.inst(in)
}
