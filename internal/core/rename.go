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
	for n := 0; n < c.Cfg.DecodeWidth && c.fqLen() > 0; n++ {
		e := *c.fqFront()
		if e.readyAt > c.now {
			return
		}
		cost := 1
		if c.Cfg.SplitStores && e.inst.Op.IsStore() {
			cost = 2 // pseudo-double store consumes two rename slots
		}
		if cost > renameSlots {
			return
		}
		if c.robQ.full() {
			c.Stats.StallROB++
			return
		}
		if !c.tryRename(&e) {
			return // structural stall (phys regs, LQ/SQ, queue, checkpoint)
		}
		renameSlots -= cost
		c.fqPop()
	}
}

// tryRename renames and dispatches one instruction; returns false on a
// structural hazard (leaving the instruction in the IBUF).
func (c *Core) tryRename(e *fqEntry) bool {
	in := e.inst
	u := uop{
		seq:        c.seq + 1,
		pc:         e.pc,
		inst:       in,
		newPhys:    noPhys,
		oldPhys:    noPhys,
		lqIdx:      -1,
		sqIdx:      -1,
		ckptID:     -1,
		minIssue:   c.now + uint64(c.Cfg.RenameDelay),
		predTaken:  e.predTaken,
		predTarget: e.predTarget,
		dirIdx:     e.dirIdx,
		histBefore: e.histBefore,
		rasSnap:    e.rasSnap,
		fromLoop:   e.fromLoop,
		excCause:   e.excCause,
		excTval:    e.excTval,
		memSize:    in.Op.MemBytes(),
	}

	if !c.Cfg.EnableCustomExt && isCustomOp(in.Op) {
		// §II: with the non-standard extensions disabled the core operates
		// fully standard-compatible — custom encodings trap as illegal.
		u.excCause = isa.ExcIllegalInst
		u.excTval = e.pc
	}

	class := in.Op.Class()
	if u.excCause < 0 {
		switch class {
		case isa.ClassALU:
			u.pipe = c.balanceALU()
		case isa.ClassMul:
			u.pipe = pipeALU0
		case isa.ClassDiv:
			u.pipe = pipeALU1 // multi-cycle ALU/divider pipe (§II)
		case isa.ClassBranch, isa.ClassJump:
			u.pipe = pipeBJU
			u.isCtrl = true
		case isa.ClassLoad:
			u.pipe = pipeLD
		case isa.ClassStore:
			u.pipe = pipeSTA // plus an st.data leg below
		case isa.ClassFPU:
			u.pipe = c.balanceFV()
		case isa.ClassVSet, isa.ClassVALU, isa.ClassVFPU, isa.ClassVLoad, isa.ClassVStore:
			if c.Vec == nil {
				u.excCause = isa.ExcIllegalInst
				u.excTval = e.pc
				u.atRetire = true
			} else {
				u.pipe = pipeFV0 // ordered vector queue
			}
		case isa.ClassCSR, isa.ClassSys, isa.ClassAMO, isa.ClassCacheOp:
			u.atRetire = true
		default:
			u.atRetire = true
		}
	} else {
		u.atRetire = true
	}

	// structural resources
	if u.isLoad() && u.excCause < 0 {
		if len(c.lq) >= c.Cfg.LQSize {
			c.Stats.StallLQ++
			return false
		}
	}
	if u.isStore() && u.excCause < 0 {
		if len(c.sq) >= c.Cfg.SQSize {
			c.Stats.StallSQ++
			return false
		}
	}
	needCkpt := u.isCtrl && in.Op != isa.JAL
	ckptID := -1
	if needCkpt {
		ckptID = c.allocCkpt()
		if ckptID < 0 {
			c.Stats.StallCkpt++
			return false
		}
	}
	if u.excCause < 0 && !u.atRetire && len(c.queues[u.pipe]) >= c.Cfg.IssueQueue {
		c.Stats.StallIQ++
		if ckptID >= 0 {
			c.ckpts[ckptID].used = false
		}
		return false
	}

	// rename sources through the speculative RAT
	regs, nsrc := in.Sources()
	for i := 0; i < nsrc; i++ {
		r := regs[i]
		if r.IsV() {
			continue // vector operands tracked by the vector scoreboard
		}
		u.srcPhys[u.nsrc] = c.rat[int(r)]
		u.nsrc++
	}
	// allocate destination
	if in.WritesReg() && !in.Rd.IsV() {
		p, ok := c.pf.alloc()
		if !ok {
			c.Stats.StallPhys++
			if ckptID >= 0 {
				c.ckpts[ckptID].used = false
			}
			return false
		}
		u.newPhys = p
		u.oldPhys = c.rat[int(in.Rd)]
		c.rat[int(in.Rd)] = p
	}

	c.seq++
	u.seq = c.seq
	if ckptID >= 0 {
		u.ckptID = ckptID
		ck := &c.ckpts[ckptID]
		ck.seq = u.seq
		copy(ck.rat[:], c.rat)
		ck.history = c.Dir.History()
	}

	idx := c.robQ.push(u)
	pu := c.robQ.at(idx)

	if c.tr != nil {
		c.traceRename(pu, e)
	}

	if pu.isLoad() && pu.excCause < 0 {
		pu.lqIdx = len(c.lq)
		c.lq = append(c.lq, lqEntry{seq: pu.seq, robIdx: idx})
	}
	if pu.isStore() && pu.excCause < 0 {
		pu.sqIdx = len(c.sq)
		c.sq = append(c.sq, sqEntry{seq: pu.seq, robIdx: idx})
	}
	if !pu.atRetire && pu.excCause < 0 {
		c.queues[pu.pipe] = append(c.queues[pu.pipe], idx)
		if pu.isStore() && c.Cfg.SplitStores {
			// st.data leg issues independently from its own queue (§V-B);
			// without the split, the store is a single µOp on the store pipe
			// that waits for both its address and data operands
			c.queues[pipeSTD] = append(c.queues[pipeSTD], idx)
		}
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

func isCustomOp(op isa.Op) bool {
	return op >= isa.XLRB && op <= isa.XTLBIVA
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

func (c *Core) allocCkpt() int {
	for i := range c.ckpts {
		if !c.ckpts[i].used {
			c.ckpts[i].used = true
			return i
		}
	}
	return -1
}
