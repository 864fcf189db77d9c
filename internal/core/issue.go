package core

import (
	"xt910/internal/mmu"
	"xt910/internal/trace"
	"xt910/internal/vector"
	"xt910/isa"
)

// issueAndExecute models the IS/RF/EX stages: each pipe selects its oldest
// ready micro-op (age-vector scheduling, §IV), up to IssueWidth issues per
// cycle across the 8 shared instruction slots. Execution is value-carrying:
// results are computed at issue time from the physical register file and
// become visible to consumers at now+latency (full bypass network).
func (c *Core) issueAndExecute() {
	slots := c.Cfg.IssueWidth
	for p := pipeID(0); p < numPipes && slots > 0; p++ {
		if c.pipeBusy[p] > c.now {
			continue
		}
		q := c.queues[p]
		for qi := 0; qi < len(q); qi++ {
			idx := q[qi]
			u := c.robQ.slot(idx)
			if u.minIssue > c.now {
				// queues are age-ordered; younger entries cannot be ready
				// earlier in the in-order machine, but in the OoO machine a
				// younger op may still issue — keep scanning.
				if !c.Cfg.OutOfOrder {
					break
				}
				continue
			}
			if !c.Cfg.OutOfOrder && !c.allOlderIssued(u.seq) {
				break
			}
			if c.tryExecute(p, idx, u) {
				if c.tr != nil {
					c.traceIssue(p, u.seq)
				}
				c.dequeue(p, qi, idx)
				slots--
				c.Stats.Issued++
				break // one issue per pipe per cycle
			}
			if !c.Cfg.OutOfOrder {
				break // in-order: blocked head blocks the pipe
			}
			if p == pipeFV0 && u.class != isa.ClassFPU {
				// the vector queue is strictly ordered (§VII): vecLog is a
				// FIFO and the speculative file has no renaming
				break
			}
		}
	}
}

// dequeue removes the just-issued ROB index idx from pipe p's queue. It sat
// at position qi when the scan picked it; tryExecute may since have rewritten
// the queue (branch recovery squashes younger entries, which all sit behind
// it), so the position is checked against the queue's current contents and a
// search covers the case where it moved.
func (c *Core) dequeue(p pipeID, qi, idx int) {
	cur := c.queues[p]
	if qi >= len(cur) || cur[qi] != idx {
		qi = -1
		for j, v := range cur {
			if v == idx {
				qi = j
				break
			}
		}
		if qi < 0 {
			return
		}
	}
	// a handful of ints: a loop beats the call into memmove
	for j := qi + 1; j < len(cur); j++ {
		cur[j-1] = cur[j]
	}
	c.queues[p] = cur[:len(cur)-1]
}

// traceIssue stamps the issue-side lifecycle events for a µop that just left
// pipe p's queue: the scheduler selection itself, then the pipe-specific
// execution point (AGU leg, store-data capture, or EX1).
func (c *Core) traceIssue(p pipeID, seq uint64) {
	c.tr.StageAt(seq, trace.StageIssue, c.now)
	switch p {
	case pipeLD:
		c.tr.StageAt(seq, trace.StageAddr, c.now)
	case pipeSTA:
		c.tr.StageAt(seq, trace.StageAddr, c.now)
		if !c.Cfg.SplitStores {
			// unified store µOp captures its data on the same pipe
			c.tr.StageAt(seq, trace.StageData, c.now)
		}
	case pipeSTD:
		c.tr.StageAt(seq, trace.StageData, c.now)
	default:
		c.tr.StageAt(seq, trace.StageExec, c.now)
	}
}

// allOlderIssued enforces in-order issue for the U74-class configuration:
// a micro-op may issue only when every older one has issued.
func (c *Core) allOlderIssued(seq uint64) bool { return c.oldestUnissued() >= seq }

// oldestUnissued is the sequence number of the oldest micro-op in-order
// issue waits for, ffNever when there is none. The store-data leg (its µop
// is issued once the address leg is) and atRetire ops do not gate.
func (c *Core) oldestUnissued() uint64 {
	for i := 0; i < c.robQ.len(); i++ {
		if u := c.robQ.at(i); !u.issued && !u.atRetire && u.excCause < 0 {
			return u.seq
		}
	}
	return ffNever
}

func (c *Core) srcsReady(u *uop) bool {
	for i := 0; i < int(u.nsrc); i++ {
		if !c.pf.ready(u.srcPhys[i], c.now) {
			return false
		}
	}
	return true
}

func (c *Core) srcVal(u *uop, i int) uint64 { return c.pf.read(u.srcPhys[i]) }

// opndABC resolves up to three scalar operand values in Sources() order.
func (c *Core) opndABC(u *uop) (a, b, cc uint64) {
	vals := [3]uint64{}
	for i := 0; i < int(u.nsrc); i++ {
		vals[i] = c.srcVal(u, i)
	}
	return vals[0], vals[1], vals[2]
}

// tryExecute attempts to issue the micro-op on pipe p; returns true when it
// issued (for stores, when the corresponding leg issued).
func (c *Core) tryExecute(p pipeID, idx int, u *uop) bool {
	switch {
	case p == pipeSTA && u.isStore():
		return c.execStoreAddr(idx, u)
	case p == pipeSTD && u.isStore():
		return c.execStoreData(u)
	case p == pipeLD:
		return c.execLoad(idx, u)
	case p == pipeFV0 || p == pipeFV1:
		if u.class == isa.ClassFPU {
			return c.execFPU(p, u)
		}
		return c.execVector(p, idx, u)
	case p == pipeBJU:
		return c.execBranch(u)
	default:
		return c.execALU(p, u)
	}
}

func (c *Core) execALU(p pipeID, u *uop) bool {
	if !c.srcsReady(u) {
		return false
	}
	op := u.inst.Op
	a, b, _ := c.opndABC(u)
	var res uint64
	var ok bool
	// three-source forms read the old destination as their last source
	if res, ok = isa.EvalIntALU(op, a, b, u.pc, u.inst.Imm, u.inst.Size); !ok {
		v0, v1, v2 := c.opndABC(u)
		if res, ok = isa.EvalIntALU3(op, v0, v1, v2); !ok {
			u.excCause = isa.ExcIllegalInst
			u.excTval = u.pc
			u.done = true
			u.readyAt = c.now + 1
			u.issued = true
			return true
		}
	}
	lat := uint64(u.latency)
	if u.class == isa.ClassDiv {
		lat = uint64(isa.DivLatency(op, a))
		c.pipeBusy[p] = c.now + lat // the divider is not pipelined
	}
	c.pf.write(u.newPhys, res, c.now+lat)
	u.done, u.issued = true, true
	u.readyAt = c.now + lat
	return true
}

func (c *Core) execFPU(p pipeID, u *uop) bool {
	if !c.srcsReady(u) {
		return false
	}
	a, b, cc := c.opndABC(u)
	res, flags, ok := isa.EvalFPUFlags(u.inst.Op, a, b, cc)
	if !ok {
		u.excCause = isa.ExcIllegalInst
		u.excTval = u.pc
	}
	u.fpFlags = flags
	lat := uint64(u.latency)
	if lat > 8 {
		c.pipeBusy[p] = c.now + lat/2 // long-latency FP ops partially block
	}
	c.pf.write(u.newPhys, res, c.now+lat)
	u.done, u.issued = true, true
	u.readyAt = c.now + lat
	return true
}

// execBranch resolves branches and jumps at EX1 and recovers from
// mispredictions via the rename checkpoints.
func (c *Core) execBranch(u *uop) bool {
	if !c.srcsReady(u) {
		return false
	}
	op := u.inst.Op
	a, b, _ := c.opndABC(u)
	nextPC := u.pc + uint64(u.inst.Size)
	actTaken := false
	actTarget := nextPC
	switch op {
	case isa.JAL:
		actTaken = true
		actTarget = u.pc + uint64(u.inst.Imm)
	case isa.JALR:
		actTaken = true
		actTarget = (a + uint64(u.inst.Imm)) &^ 1
	default:
		actTaken = isa.EvalBranch(op, a, b)
		if actTaken {
			actTarget = u.pc + uint64(u.inst.Imm)
		}
	}
	// link register
	if u.newPhys != noPhys {
		c.pf.write(u.newPhys, nextPC, c.now+1)
	}
	u.done, u.issued = true, true
	u.readyAt = c.now + 1
	u.redirectTo = actTarget

	// train the predictors (§III)
	c.Stats.Branches++
	if u.class == isa.ClassBranch {
		c.Dir.Update(u.br.dirIdx, actTaken, u.predTaken)
		if actTaken {
			c.L1BTB.Insert(u.pc, actTarget)
			if c.Cfg.EnableL0BTB {
				c.L0BTB.Insert(u.pc, actTarget)
			}
			if c.Cfg.EnableLoopBuf && actTarget < u.pc {
				body := int(u.pc-actTarget)/2 + 1
				c.LoopBuf.Observe(u.pc, actTarget, body)
			}
		} else if c.Cfg.EnableLoopBuf && c.LoopBuf.Active() && u.pc == c.LoopBuf.End() {
			c.LoopBuf.Exit()
		}
	}
	if op == isa.JALR {
		c.L1BTB.Insert(u.pc, actTarget)
		if c.Cfg.EnableIndirect {
			c.Ind.Update(u.pc, u.br.histBefore, actTarget)
		}
	}

	mispredict := actTaken != u.predTaken || (actTaken && actTarget != u.br.predTarget)
	if mispredict {
		c.Stats.BrMispredicts++
		c.recoverFromBranch(u, actTarget, actTaken)
	} else if u.ckptID >= 0 {
		c.ckpts[u.ckptID].used = false
		u.ckptID = -1
	}
	return true
}

// execVector runs the ordered vector queue (§VII) against the speculative
// vector unit; what the µop produced waits in vecLog for its pop (vcommit.go).
// The head of the queue issues only once no older unresolved control flow,
// unexecuted memory operation, or retire-executed (CSR/system) instruction
// remains in the ROB — a timing gate only: nothing architectural depends on
// how far the speculative unit runs ahead.
func (c *Core) execVector(p pipeID, idx int, u *uop) bool {
	if !c.srcsReady(u) {
		return false
	}
	if at, held := c.vectorGates(u); at > c.now || held {
		return false
	}
	op := u.inst.Op
	cls := u.class
	spec := c.specVec
	vt := spec.VType
	group := vt.LMUL()

	if op == isa.VSETVLI || op == isa.VSETVL {
		var rs1, rs2 uint64
		if u.nsrc > 0 {
			rs1 = c.srcVal(u, 0)
		}
		if op == isa.VSETVL {
			rs2 = c.srcVal(u, 1)
		}
		vl := spec.VSet(&u.inst, rs1, rs2)
		c.pf.write(u.newPhys, vl, c.now+1)
		// §VII vl speculation: a changed vl breaks the predicted vector
		// configuration and costs a re-steer of in-flight vector work.
		if vl != c.lastVL {
			c.vecBusy = c.now + 6
		}
		c.lastVL = vl
		c.logVector(u, 0, 0, c.vecStores.len())
		u.done, u.issued = true, true
		u.readyAt = c.now + 1
		return true
	}

	// the destination register group: what the µop may write of the file
	rd, nregs := 0, 0
	if u.inst.Rd.IsV() {
		rd, nregs = u.inst.Rd.Index(), group
		if op == isa.VWMACCVV {
			nregs = group * 2
		}
		if nregs > 32-rd {
			nregs = 32 - rd
		}
	}

	// execute functionally against speculative vector state
	scalar := uint64(0)
	if u.nsrc > 0 {
		scalar = c.srcVal(u, 0)
	}
	vin := u.inst
	switch op {
	case isa.VLSE:
		vin.Imm = int64(c.srcVal(u, 1))
	case isa.VSSE:
		vin.Imm = int64(c.srcVal(u, 1))
	}
	memDone := c.now
	var memErr error
	var memErrVA uint64
	ld := func(addr uint64, size int) uint64 {
		pa, done, err := c.translateData(addr, false)
		if err != nil {
			if memErr == nil {
				memErr, memErrVA = err, addr
			}
			return 0 // matches the golden model: a faulting element reads 0
		}
		if done > memDone {
			memDone = done
		}
		return c.Mem.Read(pa, size)
	}
	firstWrite := c.vecStores.len()
	st := func(addr uint64, size int, v uint64) {
		pa, done, err := c.translateData(addr, true)
		if err != nil {
			if memErr == nil {
				memErr, memErrVA = err, addr
			}
			return
		}
		if done > memDone {
			memDone = done
		}
		c.vecStores.push(vecWrite{pa: pa, val: v, size: uint8(size)})
	}
	xres, hasX, err := spec.Exec(vin, scalar, ld, st)
	c.logVector(u, rd, nregs, firstWrite)
	if err != nil || memErr != nil {
		// same precedence as the golden model: a vector-unit error is an
		// illegal instruction; otherwise the first element fault reports its
		// real page-fault cause with the faulting element's virtual address
		if pf, ok := memErr.(*mmu.PageFault); err == nil && ok {
			u.excCause = int16(pf.Cause())
			u.excTval = memErrVA
		} else {
			u.excCause = isa.ExcIllegalInst
			u.excTval = u.pc
		}
		u.done, u.issued = true, true
		u.readyAt = c.now + 1
		return true
	}

	lat := uint64(u.latency)
	occ := uint64((vector.OccupancyCycles(vt) + 1) / 2) // two slices
	if occ < 1 {
		occ = 1
	}
	switch cls {
	case isa.ClassVLoad, isa.ClassVStore:
		// one demand access per touched line, 128 bits/cycle through the LSU
		vl := int(spec.VL)
		bytes := vl * vt.SEW() / 8
		lineStep := c.Cfg.L1D.LineBytes
		base := scalar
		var last uint64
		for off := 0; off < bytes; off += lineStep {
			pa, _, err := c.translateData(base+uint64(off), cls == isa.ClassVStore)
			if err != nil {
				break
			}
			done, _ := c.L1D.Access(pa, cls == isa.ClassVStore, c.now)
			if done > last {
				last = done
			}
			if cls == isa.ClassVLoad {
				c.PF.Train(base+uint64(off), c.now)
			}
		}
		if last > memDone {
			memDone = last
		}
		mc := uint64(vector.MemCycles(vl, vt))
		c.pipeBusy[pipeLD] = c.now + mc
		lat = memDone - c.now + 2
		occ = mc
	default:
		c.pipeBusy[pipeFV1] = c.now + occ // both slices work in concert
	}
	c.vecBusy = c.now + occ
	// scoreboard: destination group ready after latency
	for i := 0; i < nregs; i++ {
		c.vregReady[rd+i] = c.now + lat
	}
	if hasX {
		c.pf.write(u.newPhys, xres, c.now+lat)
	}
	u.done, u.issued = true, true
	u.readyAt = c.now + lat
	return true
}

// vectorGates is what holds the vector queue's head u besides its scalar
// sources, for execVector and for the clock's estimate of it (NextEvent),
// touching nothing. at is when the clocked gates clear: the unit itself
// (vecBusy) and the scoreboard of u's register groups, and of v0 under a mask.
// held, meaningful once at has come, is an ordering gate that only another
// µop's execute or pop releases: something older not quiesced, and for a
// memory op an older scalar store still in the SQ (all must have drained), for
// a load — it reads memory now — an older vector store or atomic not popped,
// for a store no room in the store buffer for its vl element writes.
func (c *Core) vectorGates(u *uop) (at uint64, held bool) {
	at = c.vecBusy
	group := c.specVec.VType.LMUL()
	for _, r := range [...]isa.Reg{u.inst.Rs1, u.inst.Rs2, u.inst.Rs3, u.inst.Rd} {
		for i := 0; r.IsV() && i < group && r.Index()+i < 32; i++ {
			at = max(at, c.vregReady[r.Index()+i])
		}
	}
	if u.inst.Masked {
		at = max(at, c.vregReady[0])
	}
	if at > c.now {
		return at, false
	}
	if !c.olderQuiesced(u.seq) {
		return at, true
	}
	switch u.class {
	case isa.ClassVLoad:
		held = c.hasOlderPendingVStore(u.seq)
	case isa.ClassVStore:
		held = int(c.specVec.VL) > c.vecStores.room()
	default:
		return at, false
	}
	return at, held || c.sq.len() > 0 && c.sq.front().seq < u.seq
}

// olderQuiesced reports whether everything older than seq is safe to commit
// past: no unresolved control flow, no unexecuted memory op, no pending
// retire-executed instruction, no pending squash/exception.
func (c *Core) olderQuiesced(seq uint64) bool {
	for i := 0; i < c.robQ.len(); i++ {
		u := c.robQ.at(i)
		if u.seq >= seq {
			break
		}
		if u.excCause >= 0 || u.squashRetry || u.atRetire {
			return false
		}
		if (u.isCtrl() || u.isLoad()) && !u.done {
			return false
		}
		if u.isStore() && !(u.addrDone && u.dataDone) {
			return false
		}
	}
	return true
}

// translateData resolves a data virtual address through the MMU.
func (c *Core) translateData(va uint64, write bool) (uint64, uint64, error) {
	acc := mmuAccLoad
	if write {
		acc = mmuAccStore
	}
	return c.mmuTranslate(va, acc)
}
