package emu_test

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"xt910/internal/asm"
	"xt910/internal/bench"
	"xt910/internal/cosim"
	"xt910/internal/emu"
	"xt910/internal/mem"
	"xt910/isa"
)

// stepBudgets are the Run budgets TestRunMatchesStep and FuzzRunMatchesStep
// compare with stepping: one step, a few, many, and no limit.
var stepBudgets = []uint64{1, 3, 64, 1 << 40}

// TestRunMatchesStep: after every Run(b), a machine equals one that took the
// same number of Steps, for every kernel at its Quick size (translation off)
// and every seed make cli-smoke fuzzes in base and paged mode (paged mode
// fetches through SV39 in S-mode). Where a budget ends inside straight-line
// code, or where that code is entered, must change nothing.
func TestRunMatchesStep(t *testing.T) {
	for _, w := range bench.Workloads() {
		iters := max(w.DefaultIters/10, 1) // bench.Options.Quick's size
		p, err := w.Program(iters, true)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.Name, func(t *testing.T) {
			for _, b := range stepBudgets {
				compareRunWithSteps(t, b, func() *emu.Machine { return kernelMachine(p) })
			}
		})
	}
	for _, mode := range []struct {
		spec string
		n    int64
	}{{"", 200}, {"paged", 60}} {
		modes, err := cosim.ParseModes(mode.spec)
		if err != nil {
			t.Fatal(err)
		}
		opts := cosim.Options{Modes: modes}
		for seed := int64(1); seed <= mode.n; seed++ {
			p, _, err := cosim.GenerateProgram(seed, 0, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("fuzz/%s/%d", mode.spec, seed), func(t *testing.T) {
				for _, b := range stepBudgets {
					compareRunWithSteps(t, b, func() *emu.Machine { return sessionMachine(p, opts) })
				}
			})
		}
	}
}

// TestRunAtPageEnd: a taken branch or jump on a page's last halfword whose
// target is on the same page, the fetch path's corner — the word there does
// not lie whole on the page — under every budget: c.j, c.bnez, c.jr and a
// jal straddling into the next page. Each program passes the edge four times,
// so the target's slot is warm when the jump comes back.
func TestRunAtPageEnd(t *testing.T) {
	const top, edge = 0x1f80, 0x1ffe
	jump := func(op isa.Op, rd, rs1 isa.Reg) isa.Inst {
		in := isa.NewInst(op)
		in.Rd, in.Rs1, in.Imm = rd, rs1, top-edge
		if op == isa.BNE {
			in.Rs2 = isa.Zero
		}
		return in
	}
	for _, c := range []struct {
		name string
		in   isa.Inst
	}{
		{"c.j", jump(isa.JAL, isa.Zero, isa.RegNone)},
		{"c.bnez", jump(isa.BNE, isa.RegNone, isa.S0)},
		{"c.jr", isa.Inst{Op: isa.JALR, Rd: isa.Zero, Rs1: isa.RA, Rs2: isa.RegNone, Rs3: isa.RegNone, Size: 4}},
		{"jal", jump(isa.JAL, isa.RA, isa.RegNone)}, // no RV64C form
	} {
		in := c.in
		word, err := isa.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		parcels := fmt.Sprintf(".half %#x, %#x", word&0xFFFF, word>>16)
		if c, ok := isa.Compress(in); ok {
			parcels = fmt.Sprintf(".half %#x", c)
		}
		src := fmt.Sprintf(`
_start:
    li   s0, 4
    la   ra, top
    j    top
.org %#x
top:
    addi s0, s0, -1
    beqz s0, done
    j    edge
done:
    li   a0, 7
    li   a7, 93
    ecall
.org %#x
edge:
    %s
    .word 0
`, top, edge, parcels)
		p, err := asm.Assemble(src, asm.Options{Base: 0x1000, Compress: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Run(c.name, func(t *testing.T) {
			for _, b := range stepBudgets {
				compareRunWithSteps(t, b, func() *emu.Machine { return kernelMachine(p) })
			}
			m := kernelMachine(p)
			if err := m.Run(1 << 20); err != nil || !m.Halted || m.ExitCode != 7 || m.Instret != 21 {
				t.Fatalf("exit %d, instret %d (halted %v, err %v), want 7 and 21", m.ExitCode, m.Instret, m.Halted, err)
			}
		})
	}
}

// kernelMachine is a machine at p's entry, as the harness starts a kernel.
func kernelMachine(p *asm.Program) *emu.Machine {
	m := emu.New(mem.NewMemory())
	p.LoadInto(m.Mem)
	m.PC = p.Entry
	m.X[isa.SP] = 0x400000
	return m
}

// sessionMachine is the golden model of a lock-step session of p: the page
// tables and privilege of its mode set up. The checker's store hook is
// detached: with a hook attached Run fetches every instruction through the
// slow path, and the point here is the straight-line one.
func sessionMachine(p *asm.Program, opts cosim.Options) *emu.Machine {
	m := cosim.NewSession(p, opts).Hart(0).Emu()
	m.OnStore = nil
	return m
}

// compareRunWithSteps runs one machine with Run(b) and a twin with b Steps a
// time, from fresh machines to halt, and compares them after every call.
func compareRunWithSteps(t *testing.T, b uint64, build func() *emu.Machine) {
	t.Helper()
	run, step := build(), build()
	for calls := 0; !run.Halted; calls++ {
		if uint64(calls)*min(b, 1<<20) > 10_000_000 {
			t.Fatalf("budget %d: no halt within %d calls", b, calls)
		}
		if err := run.Run(b); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < b && !step.Halted; i++ {
			if err := step.Step(); err != nil {
				t.Fatal(err)
			}
		}
		// The CSR file is copied to compare it: every 64 steps will do.
		csrs := uint64(calls+1)*b%64 < b || run.Halted
		if d := machineDiff(run, step, csrs); d != "" {
			t.Fatalf("budget %d, after Run call %d: %s", b, calls+1, d)
		}
	}
}

// machineDiff names the first architectural difference between two
// machines, and what each marked written since the last call: "" if none.
// It compares the CSR files only if csrs is set.
func machineDiff(a, b *emu.Machine, csrs bool) string {
	switch {
	case a.PC != b.PC:
		return fmt.Sprintf("pc %#x, stepped %#x", a.PC, b.PC)
	case a.Instret != b.Instret:
		return fmt.Sprintf("instret %d, stepped %d", a.Instret, b.Instret)
	case a.X != b.X:
		return fmt.Sprintf("x %x, stepped %x", a.X, b.X)
	case a.F != b.F:
		return fmt.Sprintf("f %x, stepped %x", a.F, b.F)
	case a.Halted != b.Halted || a.ExitCode != b.ExitCode:
		return fmt.Sprintf("halted %v exit %d, stepped %v exit %d", a.Halted, a.ExitCode, b.Halted, b.ExitCode)
	case !bytes.Equal(a.Output, b.Output):
		return fmt.Sprintf("output %q, stepped %q", a.Output, b.Output)
	case a.Privilege() != b.Privilege():
		return fmt.Sprintf("privilege %d, stepped %d", a.Privilege(), b.Privilege())
	}
	if wa, wb := a.TakeWrittenRegs(), b.TakeWrittenRegs(); wa != wb {
		return fmt.Sprintf("written %#x, stepped %#x", wa, wb)
	}
	if !csrs {
		return ""
	}
	if ca, cb := a.DumpCSRs(), b.DumpCSRs(); !maps.Equal(ca, cb) {
		return fmt.Sprintf("csrs %v, stepped %v", ca, cb)
	}
	return ""
}

// FuzzRunMatchesStep checks TestRunMatchesStep's property on generated
// integer programs that store into their own code: body is read as a
// program (selfModifyingProgram) and budgets as the budget of each Run call
// in turn. The programs loop over their body a few times, so that the
// rewritten words execute from memo slots decoded before the stores.
func FuzzRunMatchesStep(f *testing.F) {
	f.Add([]byte{0x41, 0x82, 0xc3, 0x04, 0x45, 0x86, 0xc7, 0x08}, []byte{1}, false)
	f.Add([]byte{0x04, 0x10, 0x24, 0x31, 0x44, 0x52, 0x64, 0x73, 0x84, 0x95}, []byte{3, 64}, true)
	f.Add([]byte{0x05, 0x14, 0x04, 0x25, 0x04, 0x36, 0x04, 0x47}, []byte{0}, true)
	f.Fuzz(func(t *testing.T, body, budgets []byte, rvc bool) {
		src := selfModifyingProgram(body)
		p, err := asm.Assemble(src, asm.Options{Base: 0x1000, Compress: rvc})
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		run, step := kernelMachine(p), kernelMachine(p)
		for calls := 0; !run.Halted && run.Instret < 20_000; calls++ {
			b := uint64(1 << 40) // a budget of 0 reads as no limit
			if len(budgets) > 0 && budgets[calls%len(budgets)] != 0 {
				b = uint64(budgets[calls%len(budgets)])
			}
			if err := run.Run(min(b, 20_000)); err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < min(b, 20_000) && !step.Halted; i++ {
				if err := step.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if d := machineDiff(run, step, true); d != "" {
				t.Fatalf("after Run call %d (budget %d): %s\n%s", calls+1, b, d, src)
			}
		}
	})
}

// selfModifyingProgram turns bytes into an integer program: one body
// instruction per byte, the low nibble choosing the form and the high one
// its registers and operand, run three times. Its forms are register and
// immediate ALU operations, loads and stores to a data buffer, a forward
// branch, and a store of a donor word over a body instruction, later in the
// body (so the current pass reaches it) or earlier (so the next pass does).
func selfModifyingProgram(body []byte) string {
	regs := []string{"a0", "a1", "a2", "a3", "a4", "a5"}
	donors := []string{"addi a0, a0, 1", "xor a1, a1, a2", "add a3, a4, a5", "slli a2, a2, 3", "sub a4, a0, a1", "andi a5, a3, 255", "addi a1, a1, -7", "or a3, a3, a0"}
	var b bytes.Buffer
	b.WriteString("_start:\n    li s1, 3\n    la s2, data\n    la s4, donors\n")
	for i, r := range regs {
		fmt.Fprintf(&b, "    li %s, %d\n", r, 0x1234567*(i+1))
	}
	b.WriteString("loop:\n")
	n := min(len(body), 48)
	for i, c := range body[:n] {
		lo, hi := c&15, int(c>>4)
		rd, rs := regs[hi%len(regs)], regs[(hi/2+i)%len(regs)]
		fmt.Fprintf(&b, "b%d:\n", i)
		switch lo % 8 {
		case 0:
			fmt.Fprintf(&b, "    %s %s, %s, %s\n", []string{"add", "sub", "xor", "or", "and", "sll", "srl", "mul"}[hi%8], rd, rd, rs)
		case 1:
			fmt.Fprintf(&b, "    %s %s, %s, %d\n", []string{"addi", "xori", "andi", "ori"}[hi%4], rd, rs, hi*37-300)
		case 2:
			fmt.Fprintf(&b, "    ld %s, %d(s2)\n", rd, 8*(hi%8))
		case 3:
			fmt.Fprintf(&b, "    sd %s, %d(s2)\n", rs, 8*(hi%8))
		case 4, 5:
			// the donor word over a body instruction: later on odd nibbles
			target := (i + 1 + hi%3) % n
			if lo == 5 {
				target = hi % (i + 1)
			}
			fmt.Fprintf(&b, "    lw t0, %d(s4)\n    la t1, b%d\n    sw t0, 0(t1)\n", 4*(hi%len(donors)), target)
		case 6:
			if i+2 < n {
				fmt.Fprintf(&b, "    beq %s, %s, b%d\n", rd, rs, i+2)
			} else {
				fmt.Fprintf(&b, "    slt %s, %s, %s\n", rd, rs, rd)
			}
		default:
			fmt.Fprintf(&b, "    addiw %s, %s, %d\n", rd, rs, hi)
		}
	}
	b.WriteString("    addi s1, s1, -1\n    bnez s1, loop\n    mv a0, a1\n    li a7, 93\n    ecall\ndata:\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, "    .dword %d\n", 0x9e3779b97f4a7c15*uint64(i+1))
	}
	b.WriteString("donors:\n")
	for _, d := range donors {
		p, err := asm.Assemble(d, asm.Options{})
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "    .word %#x\n", uint32(p.Data[0])|uint32(p.Data[1])<<8|uint32(p.Data[2])<<16|uint32(p.Data[3])<<24)
	}
	return b.String()
}
