package core

import "xt910/isa"

// Commit is the architectural record of one retired instruction, published
// through CommitHook for observers (the lock-step co-simulation checker).
type Commit struct {
	Seq  uint64 // pipeline sequence number
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

// commitRecord assembles the Commit for a uop about to be reported. It runs
// after the retirement map update, so archRAT reads give post-commit values.
func (c *Core) commitRecord(u *uop) Commit {
	ci := Commit{Seq: u.seq, PC: u.pc, Inst: u.inst}
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
