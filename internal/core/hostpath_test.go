package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"xt910/internal/asm"
	"xt910/internal/workloads"
	"xt910/isa"
)

// TestRunSteadyStateAllocs: once the queues, the predictors' tables and the
// touched memory pages exist, a window of Run allocates nothing — not in the
// pipeline, not in the FP flag computation (stream is fadd.d/fmul.d/fmadd.d
// over normal operands), not in fast-forward (speclike is stall-dominated).
func TestRunSteadyStateAllocs(t *testing.T) {
	for _, k := range []struct {
		w      workloads.Workload
		warmup uint64 // cycles until every page the kernel writes exists
	}{
		{workloads.Stream, 150_000},
		{workloads.SpecLike, 3_000_000},
	} {
		p, err := k.w.Program(k.w.DefaultIters, true)
		if err != nil {
			t.Fatal(err)
		}
		c, memory := buildCore(XT910Config())
		p.LoadInto(memory)
		c.Reset(p.Entry, 0x400000)
		c.Run(k.warmup)
		if n := testing.AllocsPerRun(20, func() { c.Run(2000) }); n != 0 {
			t.Errorf("%s: %v allocations per 2000-cycle Run window after warm-up", k.w.Name, n)
		}
		if c.Halted {
			t.Fatalf("%s halted inside the measured windows: nothing was measured", k.w.Name)
		}
	}
}

// TestHotStructSizes keeps the per-instruction records small on purpose: the
// hot part of a ROB entry (everything above uop.br) within two cache lines,
// an IBUF entry under its old by-value size, and the static record a
// power of two so the predecode and superblock tables index by shift.
func TestHotStructSizes(t *testing.T) {
	if got := unsafe.Offsetof(uop{}.br); got > 128 {
		t.Errorf("hot part of uop is %d bytes, want <= 128", got)
	}
	if got := unsafe.Sizeof(fqEntry{}); got > 112 {
		t.Errorf("fqEntry is %d bytes, want <= 112", got)
	}
	if got := unsafe.Sizeof(sinst{}); got != 32 {
		t.Errorf("sinst is %d bytes, want 32", got)
	}
}

// TestArchRegMismatchMatchesRegLoops holds the folded compare to the loops it
// replaced — Reg over x1–x31, then f0–f31, first difference wins — on dense
// random register values with zero to three differences of random bits, a
// scrambled retirement map included. x0 never counts.
func TestArchRegMismatchMatchesRegLoops(t *testing.T) {
	c, _ := buildCore(XT910Config())
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 5000; trial++ {
		if trial%100 == 0 { // remap: any permutation of physical registers
			perm := rng.Perm(len(c.pf.val))
			for r := 1; r < 64; r++ {
				c.archRAT[r] = int16(perm[r])
			}
		}
		var x, f [32]uint64
		for r := 1; r < 64; r++ {
			v := rng.Uint64() | 1<<uint(rng.Intn(64))
			c.pf.val[c.archRAT[r]] = v
			if r < 32 {
				x[r] = v
			} else {
				f[r-32] = v
			}
		}
		for n := rng.Intn(4); n > 0; n-- {
			r, mask := rng.Intn(64), rng.Uint64()|1
			if r < 32 {
				x[r] ^= mask // r == 0: the golden x0 is never compared
			} else {
				f[r-32] ^= mask
			}
		}
		wantReg, wantVal, want := isa.Reg(0), uint64(0), false
		for r := 1; r < 64 && !want; r++ {
			golden := x[r&31]
			if r >= 32 {
				golden = f[r-32]
			}
			if v := c.Reg(isa.Reg(r)); v != golden {
				wantReg, wantVal, want = isa.Reg(r), v, true
			}
		}
		if reg, val, got := c.ArchRegMismatch(&x, &f); got != want || reg != wantReg || val != wantVal {
			t.Fatalf("trial %d: got (%v, %#x, %v), the Reg loops give (%v, %#x, %v)", trial, reg, val, got, wantReg, wantVal, want)
		}
	}
}

// TestArchRegMismatchSinceFallsBackToFull: the per-commit compare reads only
// the registers retirement rebound and those the caller marks, so a write to
// a register the retirement map holds made outside retirement — the host
// call's a0, a fault — must make the next compare a full one, which names
// that register although neither mask has it. Over every other commit of the
// program, a golden side kept from the commit records compares clean; and
// every register whose value a commit changed is rebound or clobbered.
func TestArchRegMismatchSinceFallsBackToFull(t *testing.T) {
	p, err := asm.Assemble(`
_start:
    li a0, 1
    la a1, msg
    li a2, 5
    li a7, 64
    ecall
    addi t0, a0, 1
    fcvt.d.l ft3, t0
    li a7, 93
    li a0, 0
    ecall
msg:
    .ascii "hello"
`, asm.Options{Base: 0x1000})
	if err != nil {
		t.Fatal(err)
	}
	c, memory := buildCore(XT910Config())
	p.LoadInto(memory)
	c.Reset(p.Entry, 0x80000)
	var x, f [32]uint64 // the golden side: what the commit records say
	x[isa.SP] = 0x80000
	before := archRegs(c)
	hostCalls := 0
	c.CommitHook = func(ci *Commit) {
		after := archRegs(c)
		for r := 1; r < 64; r++ {
			if after[r] != before[r] && c.pf.rebound&(1<<r) == 0 && !c.pf.clobbered {
				t.Fatalf("%s changed at %s without a rebinding or a clobber", isa.Reg(r), ci.Inst)
			}
		}
		before = after
		var written uint64
		if ci.HasRd && ci.Inst.Rd != isa.Zero {
			if r := ci.Inst.Rd; r.IsF() {
				f[r.Index()] = ci.RdVal
			} else {
				x[r.Index()] = ci.RdVal
			}
			written = 1 << ci.Inst.Rd
		}
		if ci.Inst.Op == isa.ECALL && c.Reg(isa.A7) == isa.SysWrite {
			hostCalls++
			reg, val, differs := c.ArchRegMismatchSince(written, &x, &f)
			if !differs || reg != isa.A0 || val != 5 {
				t.Fatalf("after the host call: got (%v, %#x, %v), want (a0, 0x5, true)", reg, val, differs)
			}
			x[isa.A0] = val
		}
		if reg, val, differs := c.ArchRegMismatchSince(written, &x, &f); differs {
			t.Fatalf("at %s: %v differs, core=%#x", ci.Inst, reg, val)
		}
	}
	c.Run(1_000_000)
	if !c.Halted || hostCalls != 1 {
		t.Fatalf("halted=%v after %d host calls, want a halt after one", c.Halted, hostCalls)
	}
	for _, r := range []isa.Reg{isa.F(3), isa.T0} {
		if !c.InjectArchRegBit(int(r), 2) {
			t.Fatal("fault refused")
		}
		reg, val, differs := c.ArchRegMismatchSince(0, &x, &f)
		if want := c.Reg(r); !differs || reg != r || val != want {
			t.Fatalf("after a fault on %v: got (%v, %#x, %v), want (%v, %#x, true)", r, reg, val, differs, r, want)
		}
		c.InjectArchRegBit(int(r), 2)
		if reg, _, differs := c.ArchRegMismatchSince(0, &x, &f); differs {
			t.Fatalf("after undoing the fault on %v: %v differs", r, reg)
		}
	}
}

// archRegs reads every architectural scalar register through the retirement
// map.
func archRegs(c *Core) (regs [64]uint64) {
	for r := range regs {
		regs[r] = c.Reg(isa.Reg(r))
	}
	return regs
}
