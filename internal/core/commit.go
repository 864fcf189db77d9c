package core

import (
	"math/bits"

	"xt910/isa"
)

// Commit is the architectural record of one retired instruction, published
// through CommitHook for observers (the lock-step co-simulation checker).
type Commit struct {
	PC   uint64
	Inst isa.Inst

	// RdVal is the committed destination value when HasRd is set (scalar
	// integer/FP destinations only; vector results live in the vector file).
	RdVal uint64
	HasRd bool

	// Addr is the effective memory address when HasAddr is set (loads,
	// stores and atomics).
	Addr    uint64
	HasAddr bool
}

// Reservation exposes the LR/SC reservation state for co-simulation.
func (c *Core) Reservation() (valid bool, addr uint64) {
	return c.resOK, c.resAddr
}

// ArchRegMismatch compares the scalar register files as the retirement map
// sees them — x1–x31, then f0–f31 — against the golden model's x and f arrays,
// and returns the first architectural register that differs with the core's
// value of it. Each value is read where Reg reads it, from the physical
// register archRAT names: the storage a transient fault in either (inject.go)
// corrupts, never a copy. The per-commit check calls it through
// ArchRegMismatchSince, only when the file was clobbered.
func (c *Core) ArchRegMismatch(x, f *[32]uint64) (reg isa.Reg, val uint64, differs bool) {
	rat, phys := (*[64]int16)(c.archRAT), c.pf.val
	// The checker asks at every commit and the answer is almost always no, so
	// every difference is first folded into one word, four registers a step
	// and no branch on any of them (a third of the time of the plain search
	// below); x0 rides along, equal by construction.
	var diff uint64
	for i := 0; i < 32; i += 4 {
		// ^ and | bind alike in Go: the parentheses are the expression
		diff |= (phys[rat[i]] ^ x[i]) | (phys[rat[i+1]] ^ x[i+1]) | (phys[rat[i+2]] ^ x[i+2]) | (phys[rat[i+3]] ^ x[i+3])
		diff |= (phys[rat[32+i]] ^ f[i]) | (phys[rat[33+i]] ^ f[i+1]) | (phys[rat[34+i]] ^ f[i+2]) | (phys[rat[35+i]] ^ f[i+3])
	}
	if diff == 0 {
		return 0, 0, false
	}
	for i := 1; i < 32; i++ {
		if v := phys[rat[i]]; v != x[i] {
			return isa.X(i), v, true
		}
	}
	for i := 0; i < 32; i++ {
		if v := phys[rat[32+i]]; v != f[i] {
			return isa.F(i), v, true
		}
	}
	return 0, 0, false
}

// ArchRegMismatchSince is ArchRegMismatch over what may have changed since
// its last call, when that call found no difference: the registers retirement
// rebound and those in written (bit r of isa.Reg r, the golden model's
// writes), ascending, x0 skipped. It falls back to the full compare when a
// register the retirement map holds was written outside retirement (a fault,
// the host-call a0, Reset) and on a new core. Either way it starts the next
// interval.
func (c *Core) ArchRegMismatchSince(written uint64, x, f *[32]uint64) (reg isa.Reg, val uint64, differs bool) {
	mask, full := c.pf.rebound|written, c.pf.clobbered
	c.pf.rebound, c.pf.clobbered = 0, false
	if full {
		return c.ArchRegMismatch(x, f)
	}
	rat, phys := (*[64]int16)(c.archRAT), c.pf.val
	for mask &^= 1; mask != 0; mask &= mask - 1 {
		r := bits.TrailingZeros64(mask)
		want := x[r&31]
		if r >= 32 {
			want = f[r&31]
		}
		if v := phys[rat[r]]; v != want {
			return isa.Reg(r), v, true
		}
	}
	return 0, 0, false
}

// commitRecord assembles the Commit for a uop about to be reported in the
// core's own record, which CommitHook is handed. It runs after the retirement
// map update, so archRAT reads give post-commit values.
func (c *Core) commitRecord(u *uop) *Commit {
	ci := &c.commitRec
	*ci = Commit{PC: u.pc, Inst: u.inst}
	if u.writesReg() {
		ci.RdVal = c.pf.read(c.archRAT[int(u.inst.Rd)])
		ci.HasRd = true
	}
	switch u.class {
	case isa.ClassLoad, isa.ClassStore, isa.ClassAMO:
		ci.Addr = u.addr
		ci.HasAddr = true
	}
	return ci
}
