package core

import (
	"xt910/internal/trace"
	"xt910/isa"
)

// recoverFromBranch restores front-end state from the branch's rename-time
// checkpoint (§IV speculative allocation) and squashes everything younger.
// The misprediction penalty — "at least seven clock cycles ... compared to
// executing jump at the IP stage" (§III-A) — emerges from the redirect gap
// plus the refill of the IF/IP/IB and ID/IR/IS/RF stages.
func (c *Core) recoverFromBranch(u *uop, target uint64, actTaken bool) {
	ck := &c.ckpts[u.ckptID]
	copy(c.rat, ck.rat[:])
	// the RAS and global history rewind to their fetch-time snapshots (the
	// rename-time view already contains younger wrong-path speculation),
	// then the branch's own resolved outcome is replayed into the history.
	c.RAS.Restore(u.br.rasSnap)
	c.Dir.RestoreHistory(u.br.histBefore)
	if u.class == isa.ClassBranch {
		c.Dir.SpeculateHistory(actTaken)
	}
	if u.inst.Op == isa.JALR && u.inst.Rd == isa.RA {
		c.RAS.Push(u.pc + uint64(u.inst.Size))
	}
	ck.used = false
	u.ckptID = -1

	c.squashYounger(u.seq)
	c.fq.reset()
	c.fetchWait = false
	c.fetchPC = target
	c.fetchAllowed = c.now + uint64(c.Cfg.MispredictMin)
	c.badSpecUntil = c.fetchAllowed // wrong-path recovery window (CPI stack)
	c.Stats.Flushes++
}

// squashYounger removes all micro-ops younger than keepSeq from the ROB,
// issue queues, LQ and SQ, releasing their physical registers and
// checkpoints.
func (c *Core) squashYounger(keepSeq uint64) {
	for !c.robQ.empty() {
		u := c.robQ.at(c.robQ.len() - 1)
		if u.seq <= keepSeq {
			break
		}
		if c.tr != nil {
			// squashYounger is only reached from branch recovery
			c.tr.Squash(u.seq, c.now, trace.SquashMispredict)
		}
		if u.newPhys != noPhys {
			// undo the rename: the checkpointed RAT no longer references it
			c.pf.release(u.newPhys)
		}
		if u.ckptID >= 0 {
			c.ckpts[u.ckptID].used = false
		}
		if u.flags&sfBlocksLoads != 0 {
			c.blockingMemOps--
		}
		c.robQ.dropBack()
	}
	for p := range c.queues {
		q := c.queues[p][:0]
		for _, idx := range c.queues[p] {
			if c.robQ.live(idx) && c.robQ.slot(idx).seq <= keepSeq {
				q = append(q, idx)
			}
		}
		c.queues[p] = q
	}
	// both queues are in program order, so the entries to drop are a suffix
	for c.lq.len() > 0 && c.lq.at(c.lq.len()-1).seq > keepSeq {
		c.lq.dropBack()
	}
	for c.sq.len() > 0 && c.sq.at(c.sq.len()-1).seq > keepSeq {
		c.sq.dropBack()
	}
}

// flushAll empties the whole pipeline (taken at retirement for exceptions,
// serializing instructions and memory-ordering squashes, Fig. 8) and
// restarts fetch at pc after the redirect gap, attributing every killed µop
// to cause.
func (c *Core) flushAll(pc uint64, cause trace.SquashCause) {
	c.emptyPipeline(cause)
	c.fetchPC = pc
	c.fetchAllowed = c.now + uint64(c.Cfg.MispredictMin)
	if c.fetchAllowed > c.feRedirectUntil {
		// serialize/exception refill: frontend cycles until fetch resumes are
		// redirect-bound (mispredict recovery sets badSpecUntil instead)
		c.feRedirectUntil = c.fetchAllowed
	}
	c.Stats.Flushes++
}

// emptyPipeline kills every in-flight µop, attributing it to cause. The
// speculative RAT is rebuilt from the retirement RAT and the speculative
// vector unit from the committed one.
func (c *Core) emptyPipeline(cause trace.SquashCause) {
	// release every in-flight rename
	for i := 0; i < c.robQ.len(); i++ {
		u := c.robQ.at(i)
		if c.tr != nil {
			c.tr.Squash(u.seq, c.now, cause)
		}
		if u.newPhys != noPhys {
			c.pf.release(u.newPhys)
		}
	}
	c.robQ.reset()
	for p := range c.queues {
		c.queues[p] = c.queues[p][:0]
	}
	c.lq.reset()
	c.sq.reset()
	c.blockingMemOps = 0
	for i := range c.ckpts {
		c.ckpts[i].used = false
	}
	copy(c.rat, c.archRAT)
	if c.vecLog.len() > 0 {
		// executed vector µops die here too: their records go, and the
		// speculative unit is the committed one again
		c.vecLog.reset()
		c.vecStores.reset()
		c.specVec.CopyFrom(c.Vec)
	}
	c.fq.reset()
	c.fetchWait = false
	for p := range c.pipeBusy {
		c.pipeBusy[p] = 0
	}
	c.vecBusy = 0
}
