package core

import (
	"xt910/internal/cache"
	"xt910/internal/mem"
	"xt910/internal/trace"
	"xt910/isa"
)

// retire is the RT1/RT2 stage (§IV): up to RetireWidth instructions commit in
// order per cycle. Stores drain to the data cache, physical registers are
// released, and exceptional or serializing instructions flush the pipeline
// with precise state (Fig. 8).
func (c *Core) retire() {
	if c.robQ.empty() {
		c.Stats.HeadStallEmpty++
	}
	for n := 0; n < c.Cfg.RetireWidth && !c.robQ.empty(); n++ {
		// Re-sample interrupts at every retirement boundary, not just at the
		// cycle edge: a source that arms between two same-cycle commits (the
		// cosim injection protocol arms on commit indices) is delivered at
		// exactly the first boundary where it pends, which is the point the
		// synchronous golden model checks before each instruction.
		if n > 0 && c.sampleInterrupts() {
			return
		}
		u := c.robQ.front()

		// squash-at-commit for §V-A ordering violations: re-execute the load
		if u.squashRetry {
			pc := u.pc
			c.flushAll(pc, trace.SquashMemOrder)
			c.badSpecUntil = c.fetchAllowed // wrong-path recovery window
			c.memDep[pc] = true
			c.Stats.MemOrderFlushes++
			return
		}

		if !u.done {
			if u.atRetire {
				if !c.executeAtRetire(u) {
					return // stalled at head (e.g. AMO memory access)
				}
				if c.tr != nil {
					c.traceAtRetireExec(u.seq)
				}
			} else {
				if n == 0 {
					*c.headStallCounter(u)++
				}
				return // oldest instruction still executing
			}
		}
		if u.readyAt > c.now {
			if n == 0 {
				*c.headStallCounter(u)++
			}
			return
		}

		// precise exception at the head (Fig. 8)
		if u.excCause >= 0 {
			if u.effectPending {
				c.commitVector(u) // an element faulted: the others land first
			}
			c.takeTrap(u)
			return
		}

		// what executed ahead of the pop takes architectural effect here: had
		// it landed at execute, an interrupt delivered between the two would
		// squash an instruction that already changed memory, a device or the
		// vector file
		if u.effectPending {
			switch {
			case u.class == isa.ClassAMO:
				c.commitAMO(u)
			case u.flags&sfVector != 0:
				c.commitVector(u)
			default:
				c.commitDeviceLoad(u)
			}
			u.effectPending = false
		}

		// commit memory effects
		if u.isStore() {
			c.commitStore(u)
		}
		if u.isLoad() && c.lq.len() > 0 && c.lq.at(0).seq == u.seq {
			c.lq.popFront()
		}

		// release rename resources
		if u.newPhys != noPhys {
			c.pf.rebind(c.archRAT, int(u.inst.Rd), u.newPhys)
		}
		if u.ckptID >= 0 {
			c.ckpts[u.ckptID].used = false
		}

		// Floating-point architectural side effects land here, before the
		// commit hook observes state: IEEE flags accrue into fcsr, and any
		// FP execution or f-register load leaves mstatus.FS dirty.
		switch u.class {
		case isa.ClassFPU:
			c.priv.AccrueFP(u.fpFlags)
		case isa.ClassLoad:
			if u.inst.Rd.IsF() {
				c.priv.DirtyFS()
			}
		}

		if c.tr != nil {
			c.traceRetire(u.seq, u.readyAt)
		}
		if c.CommitHook != nil {
			c.CommitHook(c.commitRecord(u))
		}
		c.Stats.Retired++
		if u.fromLoop {
			c.Stats.LoopBufInsts++
		}

		flushAfter := u.flushAfter
		redirect := u.redirectTo
		blocker := u.flags&sfBlocksLoads != 0
		c.robQ.popFront()
		if blocker {
			c.popBlocker()
		}
		if c.Halted {
			return
		}
		if flushAfter {
			c.flushAll(redirect, trace.SquashSerialize)
			c.Stats.SerializeFlushes++
			return
		}
	}
}

// traceAtRetireExec stamps an at-retire op, which issues and executes at the
// ROB head. Kept out of retire so the untraced path pays only the nil check.
func (c *Core) traceAtRetireExec(seq uint64) {
	c.tr.StageAt(seq, trace.StageIssue, c.now)
	c.tr.StageAt(seq, trace.StageExec, c.now)
}

// traceRetire stamps writeback (the µop's ready time) and completes the
// record as committed.
func (c *Core) traceRetire(seq, readyAt uint64) {
	c.tr.StageAt(seq, trace.StageWriteback, readyAt)
	c.tr.Retire(seq, c.now)
}

// headStallCounter returns the Stats counter a blocked-retirement cycle is
// attributed to: the head's class.
func (c *Core) headStallCounter(u *uop) *uint64 {
	switch u.class {
	case isa.ClassLoad:
		return &c.Stats.HeadStallLoad
	case isa.ClassStore:
		return &c.Stats.HeadStallStore
	case isa.ClassFPU:
		return &c.Stats.HeadStallFPU
	case isa.ClassALU, isa.ClassMul, isa.ClassDiv:
		return &c.Stats.HeadStallALU
	case isa.ClassVALU, isa.ClassVFPU, isa.ClassVLoad, isa.ClassVStore, isa.ClassVSet:
		return &c.Stats.HeadStallVec
	}
	return &c.Stats.HeadStallOther
}

// commitStore writes the SQ head to memory and the data cache.
func (c *Core) commitStore(u *uop) {
	if c.sq.len() == 0 || c.sq.at(0).seq != u.seq {
		return
	}
	e := *c.sq.at(0)
	c.sq.popFront()
	c.Stats.Stores++
	if c.commitWrite(e.addr, e.size, e.val) {
		c.PF.Train(e.addr, c.now)
	}
}

// commitWrite is the one write a retiring instruction makes — scalar store,
// successful SC, AMO, each element of a vector store. A device address goes
// to the device (false: the write bypassed the cache hierarchy); anything
// else is written to memory on a line this hart owns and published.
func (c *Core) commitWrite(pa uint64, size int, v uint64) bool {
	if c.MMIO != nil && c.MMIO.Covers(pa) {
		c.MMIO.Write(pa, size, v)
		return false
	}
	c.ensureOwned(pa)
	if crossesLine(pa, size, c.Cfg.L1D.LineBytes) {
		c.ensureOwned(pa + uint64(size) - 1)
	}
	c.Mem.Write(pa, size, v)
	c.notifyWrite(pa, size)
	return true
}

// ensureOwned re-acquires write ownership of addr's line if it was lost (or
// downgraded) since the st.addr or head-of-ROB query — the commit-time bus
// transaction a real machine's write buffer performs when its line is gone.
// Another hart's store can have taken it, and so can this hart's own traffic:
// a younger load's fill may evict the line between the query and the commit
// (about one single-hart fuzz seed in fifty does). Either way a write retires
// only to a line its hart owns, the invariant the store-order oracle checks.
func (c *Core) ensureOwned(addr uint64) {
	if l := c.L1D.Cache.Lookup(addr); l != nil &&
		(l.State == cache.Modified || l.State == cache.Exclusive) {
		return
	}
	c.L1D.Access(addr, true, c.now)
}

// executeAtRetire performs instructions that must run non-speculatively at
// the ROB head: CSR accesses, system instructions, atomics and cache/TLB
// maintenance. It returns false if the instruction needs more cycles.
func (c *Core) executeAtRetire(u *uop) bool {
	op := u.inst.Op
	nextPC := u.pc + uint64(u.inst.Size)
	switch u.class {
	case isa.ClassCSR:
		c.execCSRAtRetire(u)
	case isa.ClassAMO:
		return c.execAMOAtRetire(u)
	case isa.ClassSys:
		switch op {
		case isa.ECALL:
			if c.hostCall() {
				u.flushAfter = true
				break
			}
			u.excCause = int16(c.priv.EcallCause())
		case isa.EBREAK:
			u.excCause = isa.ExcBreakpoint
			u.excTval = u.pc
		case isa.MRET:
			u.redirectTo = c.priv.Mret()
			c.MMU.Priv = c.priv.Level
			u.flushAfter = true
		case isa.SRET:
			u.redirectTo = c.priv.Sret()
			c.MMU.Priv = c.priv.Level
			u.flushAfter = true
		case isa.SFENCEVMA:
			c.MMU.FlushAll()
			c.PF.Flush()
			u.flushAfter = true
		case isa.FENCEI:
			c.L1I.Cache.InvalidateAll()
			u.flushAfter = true
		case isa.WFI:
			// §II timers: wait-for-interrupt parks the hart until an
			// interrupt source pends (taken or not, per the privileged spec)
			if c.IntSource != nil && c.pendingBits() == 0 {
				c.wfiWait = true
			}
			u.flushAfter = true
		case isa.FENCE:
			// full drain is implied by at-retire execution
		}
	case isa.ClassCacheOp:
		c.execCacheOpAtRetire(u)
	default:
		// an exception-carrying placeholder (fetch fault, illegal op)
		if u.excCause < 0 {
			u.excCause = isa.ExcIllegalInst
			u.excTval = u.pc
		}
	}
	u.done = true
	u.readyAt = c.now
	if u.flushAfter && u.redirectTo == 0 {
		u.redirectTo = nextPC // a serializing op resumes after itself unless it redirected
	}
	return true
}

func (c *Core) execCSRAtRetire(u *uop) {
	op := u.inst.Op
	var src uint64
	if op == isa.CSRRWI || op == isa.CSRRSI || op == isa.CSRRCI {
		src = uint64(u.inst.Imm)
	} else if u.nsrc > 0 {
		src = c.srcVal(u, 0)
	}
	old := c.CSR(u.inst.CSR)
	if v, ok := isa.CSRUpdate(op, old, src); ok {
		c.SetCSR(u.inst.CSR, v)
	}
	c.pf.write(u.newPhys, old, c.now)
	// writes to translation or mode state serialize the pipeline
	switch u.inst.CSR {
	case isa.CSRSatp, isa.CSRMstatus, isa.CSRMxstatus, isa.CSRMhcr:
		if op != isa.CSRRS && op != isa.CSRRC || src != 0 {
			u.flushAfter = true
		}
	}
	if u.inst.CSR == isa.CSRSatp {
		c.PF.Flush()
		if c.Cfg.EnableLoopBuf {
			c.LoopBuf.Flush() // context switch flushes the LBUF (§III-C)
		}
	}
}

// execAMOAtRetire is the timing phase of an atomic: translation and the data
// cache access (which acquires write ownership of the line) happen when the op
// reaches the ROB head. The architectural read-modify-write waits for the pop
// (commitAMO): an interrupt, or another hart's commits, can fall inside the
// head-stall window, and memory must not hold the result of an atomic that
// has not retired.
func (c *Core) execAMOAtRetire(u *uop) bool {
	va := c.srcVal(u, 0)
	pa, doneT, err := c.mmuTranslate(va, mmuAccStore)
	if err != nil {
		u.excCause = isa.ExcStorePageFault
		u.excTval = va
		u.done = true
		u.readyAt = c.now
		return true
	}
	done, _ := c.L1D.Access(pa, true, doneT)
	u.memLevel = c.L1D.LastLevel
	u.addr = pa
	u.done = true
	u.readyAt = done
	u.effectPending = true
	return true
}

// commitAMO is the architectural phase of an atomic, run at the pop. The
// register result becomes readable at u.readyAt — no later than the cycle it
// is written, and retirement precedes issue within a cycle — so dependants
// wake exactly when the cache access completes. hasOlderPendingVStore keeps
// the hart's own younger loads blocked until then, and ownership lost during
// the head-stall window is re-acquired before the write (commitWrite).
func (c *Core) commitAMO(u *uop) {
	op := u.inst.Op
	size := u.memSize()
	pa := u.addr
	ready := u.readyAt
	c.Stats.Atomics++
	switch op {
	case isa.LRW, isa.LRD:
		v := c.Mem.Read(pa, size)
		c.resAddr, c.resOK = pa, true
		c.pf.write(u.newPhys, isa.ExtendAMO(v, size), ready)
	case isa.SCW, isa.SCD:
		if c.resOK && c.resAddr == pa {
			c.commitWrite(pa, size, c.srcVal(u, 1))
			c.pf.write(u.newPhys, 0, ready)
		} else {
			c.pf.write(u.newPhys, 1, ready)
		}
		c.resOK = false
	default:
		old := c.Mem.Read(pa, size)
		c.commitWrite(pa, size, isa.EvalAMO(op, old, c.srcVal(u, 1)))
		c.pf.write(u.newPhys, isa.ExtendAMO(old, size), ready)
	}
}

// commitDeviceLoad performs a device load's read — which may have a side
// effect, a PLIC claim for one — at the pop; execLoad charged its latency when
// the load reached the head, and the value is readable from u.readyAt on.
func (c *Core) commitDeviceLoad(u *uop) {
	size := u.memSize()
	c.pf.write(u.newPhys, isa.ExtendLoad(u.inst.Op, c.MMIO.Read(u.addr, size), size), u.readyAt)
}

// notifyWrite publishes a committed write to the SoC fabric. The hart's own
// LR/SC reservation dies when the write touches the reserved line — an
// intervening store must fail a following SC, exactly as in the golden model
// (the SoC hook covers only the *other* harts).
func (c *Core) notifyWrite(pa uint64, size int) {
	c.KillReservation(pa, size)
	if c.MemWriteHook != nil {
		c.MemWriteHook(pa, size, c.ID)
	}
}

// KillReservation drops this hart's LR/SC reservation if the written range
// touches the reserved line (the mem.LineSize granule).
func (c *Core) KillReservation(pa uint64, size int) {
	if c.resOK && mem.WriteTouchesLine(pa, size, c.resAddr) {
		c.resOK = false
	}
}

func (c *Core) execCacheOpAtRetire(u *uop) {
	switch u.inst.Op {
	case isa.XDCACHECALL:
		c.L1D.Cache.CleanAll()
	case isa.XDCACHEIALL:
		c.L1D.FlushAll(c.now)
	case isa.XDCACHECVA:
		c.L1D.FlushVA(c.srcVal(u, 0), false, c.now)
	case isa.XDCACHEIVA:
		c.L1D.FlushVA(c.srcVal(u, 0), true, c.now)
	case isa.XICACHEIALL:
		c.L1I.Cache.InvalidateAll()
		u.flushAfter = true
	case isa.XSYNC:
		u.flushAfter = true
	case isa.XTLBIASID:
		// §V-E: broadcast maintenance over the interconnect, no IPIs
		c.MMU.FlushASID(uint16(c.srcVal(u, 0)))
		if c.TLBBroadcast != nil {
			c.TLBBroadcast(u.inst.Op, c.srcVal(u, 0), c.ID)
		}
		u.flushAfter = true
	case isa.XTLBIVA:
		c.MMU.FlushVA(c.srcVal(u, 0))
		if c.TLBBroadcast != nil {
			c.TLBBroadcast(u.inst.Op, c.srcVal(u, 0), c.ID)
		}
		u.flushAfter = true
	}
}

// hostCall serves the ecall at the ROB head under the bare-metal host ABI
// (isa.HostCall) and reports whether it did; a write reads its bytes through
// the MMU as the program would.
func (c *Core) hostCall() bool {
	a0, exit, ok := isa.HostCall(c.Reg(isa.A7), c.Reg(isa.A0), c.Reg(isa.A1), c.Reg(isa.A2), &c.Output,
		func(va uint64) (byte, bool) {
			pa, _, err := c.mmuTranslate(va, mmuAccLoad)
			if err != nil {
				return 0, false
			}
			return c.Mem.LoadByte(pa), true
		})
	switch {
	case exit:
		c.Halted, c.ExitCode = true, int(int64(a0))
	case ok:
		// a0's retirement-map register is written in place: the speculative
		// map may alias it, but anything in flight was fetched after this
		// serializing ecall anyway
		c.pf.write(c.archRAT[isa.A0], a0, c.now)
	}
	return ok
}

// pendingBits returns the externally-driven mip bits masked by mie (without
// asking the source when mie masks everything, as it does for most programs).
func (c *Core) pendingBits() uint64 {
	if c.IntSource == nil || c.priv.Enabled() == 0 {
		return 0
	}
	return c.priv.Pending(c.IntSource(c.ID))
}

// sampleInterrupts takes the highest-priority enabled machine interrupt and
// reports whether one was delivered. It runs at the cycle boundary and again
// between same-cycle retirements.
func (c *Core) sampleInterrupts() bool {
	pend := c.pendingBits()
	if pend == 0 {
		return false
	}
	c.wfiWait = false
	if !c.priv.Deliverable() {
		return false
	}
	c.takeInterrupt(pend)
	return true
}

// takeInterrupt flushes the pipeline and vectors to the handler of the
// interrupt pend selects; mepc points at the oldest unretired instruction.
func (c *Core) takeInterrupt(pend uint64) {
	resume := c.fetchPC
	if !c.robQ.empty() {
		resume = c.robQ.front().pc
	} else if c.fq.len() > 0 {
		resume = c.fq.front().pc
	}
	cause, target := c.priv.Interrupt(pend, resume)
	c.MMU.Priv = c.priv.Level
	c.Stats.Interrupts++
	c.flushAll(target, trace.SquashInterrupt)
	// everything in flight was squashed by the delivery: the refill window is
	// bad-speculation time, exactly like a mispredict recovery
	c.badSpecUntil = c.fetchAllowed
	if c.InterruptHook != nil {
		c.InterruptHook(cause, resume)
	}
}

// takeTrap takes the precise exception at the ROB head, flushing the
// pipeline and redirecting to the handler, or halting without one.
func (c *Core) takeTrap(u *uop) {
	cause := int(u.excCause)
	target, ok := c.priv.Trap(cause, u.pc, u.excTval)
	c.MMU.Priv = c.priv.Level
	c.Stats.Traps++
	if !ok {
		c.Halted, c.ExitCode = true, isa.NoHandlerExit(cause)
		return
	}
	c.flushAll(target, trace.SquashException)
}
