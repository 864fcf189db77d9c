package core

import (
	"xt910/internal/trace"
	"xt910/isa"
)

// renameDispatch models ID/IR/IS dispatch (§IV): up to DecodeWidth
// instructions leave the IBUF per cycle, are cracked into micro-ops (stores
// split into st.addr/st.data legs, §V-B), renamed onto speculatively
// allocated physical registers (up to RenameWidth rename slots), and
// dispatched into the per-pipe issue queues with dynamic load balancing.
func (c *Core) renameDispatch() {
	renameSlots := c.Cfg.RenameWidth
	for n := 0; n < c.Cfg.DecodeWidth && c.fq.len() > 0; n++ {
		e := c.fq.front()
		if e.readyAt > c.now {
			return
		}
		cost := c.renameCost(e)
		if cost > renameSlots {
			return
		}
		if c.robQ.full() {
			c.Stats.StallROB++
			return
		}
		if !c.tryRename(e) {
			return // structural stall (phys regs, LQ/SQ, queue, checkpoint)
		}
		renameSlots -= cost
		c.fq.popFront()
	}
}

// renameCost is the number of rename slots e consumes.
func (c *Core) renameCost(e *fqEntry) int {
	if c.Cfg.SplitStores && e.isStore() {
		return 2 // pseudo-double store
	}
	return 1
}

// pipeAtRetire is where route sends an instruction that executes at the ROB
// head rather than on an issue pipe; no queue or pipe has its number.
const pipeAtRetire = numPipes

// route decides where an instruction with no pending exception executes: on
// an issue pipe, or at the ROB head (pipeAtRetire). ALU and FPU work is
// balanced over its two pipes by queue length (§IV dynamic load balancing).
func (c *Core) route(s *sinst) pipeID {
	switch s.class {
	case isa.ClassALU:
		return c.balanceALU()
	case isa.ClassMul:
		return pipeALU0
	case isa.ClassDiv:
		return pipeALU1 // multi-cycle ALU/divider pipe (§II)
	case isa.ClassBranch, isa.ClassJump:
		return pipeBJU
	case isa.ClassLoad:
		return pipeLD
	case isa.ClassStore:
		return pipeSTA // plus an st.data leg
	case isa.ClassFPU:
		return c.balanceFV()
	case isa.ClassVSet, isa.ClassVALU, isa.ClassVFPU, isa.ClassVLoad, isa.ClassVStore:
		if c.Vec != nil {
			return pipeFV0 // ordered vector queue
		}
	}
	// CSR, system, atomic and cache-maintenance instructions, and anything
	// that will trap (an illegal encoding, a vector op with no vector unit)
	return pipeAtRetire
}

// renameGate is the outcome of rename's structural checks for the IBUF head.
// It has four fields so that it stays in registers: at-retire execution is a
// pipe value, not a fifth field.
type renameGate struct {
	stall  *uint64 // the counter a blocked cycle charges; nil when rename proceeds
	pipe   pipeID  // pipeAtRetire: executes at the ROB head
	exc    int16   // fetch-time exception, or illegal-instruction found here
	ckptID int     // free checkpoint for a branch or jalr; -1: none needed
}

// renameGates runs the classification and every structural gate for e, in
// the order the stall counters are charged, without touching any state — so
// fast-forward (ffSkip) asks it the same question rename does.
func (c *Core) renameGates(e *fqEntry) (g renameGate) {
	g.exc, g.ckptID = e.excCause, -1
	if e.flags&sfCustom != 0 && !c.Cfg.EnableCustomExt {
		// §II: with the non-standard extensions disabled the core operates
		// fully standard-compatible — custom encodings trap as illegal.
		g.exc = isa.ExcIllegalInst
	}
	g.pipe = pipeAtRetire
	if g.exc < 0 {
		g.pipe = c.route(&e.sinst)
		if g.pipe == pipeAtRetire && e.flags&sfVector != 0 {
			g.exc = isa.ExcIllegalInst // no vector unit
		} else if e.isLoad() && c.lq.len() >= c.Cfg.LQSize {
			g.stall = &c.Stats.StallLQ
			return g
		} else if e.isStore() && c.sq.len() >= c.Cfg.SQSize {
			g.stall = &c.Stats.StallSQ
			return g
		}
	}
	if g.exc < 0 && e.isCtrl() && e.inst.Op != isa.JAL {
		if g.ckptID = c.freeCkpt(); g.ckptID < 0 {
			g.stall = &c.Stats.StallCkpt
			return g
		}
	}
	if g.pipe != pipeAtRetire && len(c.queues[g.pipe]) >= c.Cfg.IssueQueue {
		g.stall = &c.Stats.StallIQ
		return g
	}
	if e.writesReg() && len(c.pf.free) == 0 {
		g.stall = &c.Stats.StallPhys
	}
	return g
}

// tryRename renames and dispatches the instruction at the IBUF head, building
// its µop in place in the ROB's tail slot; returns false on a structural
// hazard (leaving the instruction in the IBUF and the slot unclaimed).
func (c *Core) tryRename(e *fqEntry) bool {
	g := c.renameGates(e)
	if g.stall != nil {
		*g.stall++
		return false
	}
	idx, u := c.robQ.tail()
	c.seq++
	u.seq = c.seq
	u.pc = e.pc
	u.sinst = e.sinst
	u.minIssue = c.now + uint64(c.Cfg.RenameDelay)
	u.excCause, u.excTval = g.exc, e.excTval
	if g.exc != e.excCause {
		u.excTval = e.pc // illegal instruction found at rename
	}
	u.pipe, u.atRetire = g.pipe, g.pipe == pipeAtRetire
	u.predTaken, u.fromLoop = e.predTaken, e.fromLoop
	u.uopExec = uopExec{}

	// rename sources through the speculative RAT, then the destination
	u.srcPhys = [3]int16{}
	for i := 0; i < int(u.nsrc); i++ {
		u.srcPhys[i] = c.rat[u.src[i]]
	}
	u.newPhys, u.oldPhys = noPhys, noPhys
	if u.writesReg() {
		rd := u.inst.Rd
		u.newPhys, _ = c.pf.alloc()
		u.oldPhys = c.rat[rd]
		c.rat[rd] = u.newPhys
	}
	u.ckptID = int16(g.ckptID)
	if u.isCtrl() {
		u.br = e.br
		if g.ckptID >= 0 {
			ck := &c.ckpts[g.ckptID]
			ck.used = true
			copy(ck.rat[:], c.rat)
		}
	}

	u.qslot = -1
	if g.exc < 0 {
		if u.isLoad() {
			u.qslot = int16(c.lq.push(lqEntry{seq: u.seq, robIdx: idx}))
		} else if u.isStore() {
			u.qslot = int16(c.sq.push(sqEntry{seq: u.seq, robIdx: idx}))
		}
		if !u.atRetire {
			c.queues[u.pipe] = append(c.queues[u.pipe], idx)
			if u.isStore() && c.Cfg.SplitStores {
				// st.data leg issues independently from its own queue (§V-B);
				// without the split, the store is a single µOp on the store pipe
				// that waits for both its address and data operands
				c.queues[pipeSTD] = append(c.queues[pipeSTD], idx)
			}
		}
	}
	if u.flags&sfBlocksLoads != 0 {
		if c.blockingMemOps == 0 {
			c.oldestBlocker = u.seq
		}
		c.blockingMemOps++
	}
	c.robQ.commit()

	if c.tr != nil {
		c.traceRename(u, e)
	}
	c.Stats.Renamed++
	return true
}

// traceRename opens the µop's trace record — seq exists only from rename on —
// with the frontend stamps back-dated from the fetch-queue entry. Kept out of
// tryRename so the untraced hot path pays only the nil check.
func (c *Core) traceRename(pu *uop, e *fqEntry) {
	c.tr.Begin(pu.seq, pu.pc, pu.inst, c.now)
	c.tr.StageAt(pu.seq, trace.StageFetch, e.readyAt-uint64(e.fetchLag))
	c.tr.StageAt(pu.seq, trace.StagePredecode, e.readyAt)
	c.tr.StageAt(pu.seq, trace.StageRename, c.now)
	c.tr.StageAt(pu.seq, trace.StageDispatch, c.now)
}

// balanceALU implements the §IV dynamic load balancing: ALU work goes to the
// shorter of the two ALU queues.
func (c *Core) balanceALU() pipeID {
	if len(c.queues[pipeALU1]) < len(c.queues[pipeALU0]) {
		return pipeALU1
	}
	return pipeALU0
}

func (c *Core) balanceFV() pipeID {
	if len(c.queues[pipeFV1]) < len(c.queues[pipeFV0]) {
		return pipeFV1
	}
	return pipeFV0
}

// freeCkpt returns the index of an unused rename checkpoint, or -1.
func (c *Core) freeCkpt() int {
	for i := range c.ckpts {
		if !c.ckpts[i].used {
			return i
		}
	}
	return -1
}
