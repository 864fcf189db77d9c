package core

import (
	"xt910/internal/mmu"
	"xt910/isa"
)

const (
	mmuAccLoad  = mmu.AccLoad
	mmuAccStore = mmu.AccStore
)

func (c *Core) mmuTranslate(va uint64, acc mmu.Access) (uint64, uint64, error) {
	return c.MMU.Translate(va, acc, c.now)
}

// findSQ locates u's store-queue entry. The entry is identified by sequence
// number, as it always was: the slot is only where to look first. When the
// µop's seq no longer matches the entry in its slot — InjectROBAgeBit flipped
// a bit of it, or the entry is gone — the answer is whatever live entry
// carries that seq, or none, exactly what an age-tag search returns.
func (c *Core) findSQ(u *uop) *sqEntry {
	if s := int(u.qslot); c.sq.live(s) && c.sq.slot(s).seq == u.seq {
		return c.sq.slot(s)
	}
	for i := 0; i < c.sq.len(); i++ {
		if e := c.sq.at(i); e.seq == u.seq {
			return e
		}
	}
	return nil
}

// findLQ is findSQ for the load queue.
func (c *Core) findLQ(u *uop) *lqEntry {
	if s := int(u.qslot); c.lq.live(s) && c.lq.slot(s).seq == u.seq {
		return c.lq.slot(s)
	}
	for i := 0; i < c.lq.len(); i++ {
		if e := c.lq.at(i); e.seq == u.seq {
			return e
		}
	}
	return nil
}

// storeAddrPhys are the physical registers the st.addr leg reads: the base
// (rs1), and for the custom indexed stores (rs1 + rs2<<imm) the index too.
func (u *uop) storeAddrPhys() []int16 {
	if isIndexedStore(u.inst.Op) {
		return u.srcPhys[:2]
	}
	return u.srcPhys[:1]
}

// storeDataPhys is the physical register a store's data comes from, or
// noPhys when the data is constant-ready (storing x0). Standard stores read
// data from Rs2 (the second renamed source); custom indexed stores read data
// from Rd (the third renamed source, via Sources).
func (u *uop) storeDataPhys() int16 {
	switch {
	case isIndexedStore(u.inst.Op):
		if u.nsrc >= 3 {
			return u.srcPhys[2]
		}
	case u.inst.Rs2 != isa.Zero && u.inst.Rs2 != isa.RegNone && u.nsrc >= 2:
		return u.srcPhys[1]
	}
	return noPhys
}

func isIndexedStore(op isa.Op) bool {
	switch op {
	case isa.XSRB, isa.XSRH, isa.XSRW, isa.XSRD:
		return true
	}
	return false
}

// storeDataVal reads the store's data value, or reports it not ready yet.
func (c *Core) storeDataVal(u *uop) (uint64, bool) {
	phys := u.storeDataPhys()
	if phys == noPhys {
		return 0, true
	}
	if !c.pf.ready(phys, c.now) {
		return 0, false
	}
	return c.pf.read(phys), true
}

// addrSrcsReady: the st.addr leg needs only the address operands.
func (c *Core) addrSrcsReady(u *uop) bool {
	for _, phys := range u.storeAddrPhys() {
		if !c.pf.ready(phys, c.now) {
			return false
		}
	}
	return true
}

// execStoreAddr is the st.addr µOp (§V-B): address generation, uTLB access
// and cache query on the store pipe, plus the §V-A ordering-violation check
// against younger already-executed loads.
func (c *Core) execStoreAddr(idx int, u *uop) bool {
	if u.addrDone {
		return false
	}
	if !c.addrSrcsReady(u) {
		return false
	}
	e := c.findSQ(u)
	if !c.Cfg.SplitStores {
		// unified store µOp: both operands must be ready before it issues,
		// and the data is captured here (no separate st.data pipe)
		val, ready := c.storeDataVal(u)
		if !ready {
			return false
		}
		u.dataDone = true
		if e != nil {
			e.val = val
			e.dataDone = true
		}
	}
	va := isa.MemAddr(u.inst.Op, c.srcVal(u, 0), c.srcVal(u, 1), u.inst.Imm)
	pa, doneT, err := c.mmuTranslate(va, mmuAccStore)
	if err != nil {
		u.excCause = int16(err.(*mmu.PageFault).Cause())
		u.excTval = va
		u.addrDone, u.dataDone = true, true
		u.done, u.issued = true, true
		u.readyAt = c.now + 1
		if e != nil {
			e.addrDone, e.dataDone = true, true
		}
		return true
	}
	size := u.memSize()
	u.addr = pa
	u.addrDone = true
	u.issued = true
	if e != nil {
		e.addr = pa
		e.size = size
		e.addrDone = true
	}
	// charge the store-pipe cache query (write permission fetch happens here);
	// device addresses bypass the cache
	if c.MMIO == nil || !c.MMIO.Covers(pa) {
		c.L1D.Access(pa, true, doneT)
		u.memLevel = c.L1D.LastLevel
	}

	// §V-A: a younger load that already executed with an overlapping address
	// violated the memory order — tag it to squash at retirement and train
	// the dependence predictor so the pair blocks next time.
	for i := 0; i < c.lq.len(); i++ {
		le := c.lq.at(i)
		if le.seq > u.seq && le.executed && overlap(pa, size, le.addr, le.size) {
			lu := c.robQ.slot(le.robIdx)
			if lu.seq == le.seq && !lu.squashRetry {
				lu.squashRetry = true
				c.Stats.MemOrderViolations++
				if c.Cfg.MemDepPredict {
					c.memDep[lu.pc] = true
				}
			}
		}
	}
	c.finishStoreIfReady(u)
	return true
}

// BroadcastWrite carries a write hart `from` has committed to the other harts
// — what the coherence fabric's invalidation does for them. Their LR/SC
// reservations covering it die (the invalidation a real SC relies on), and
// their speculatively-executed overlapping loads squash. Whatever sits
// between the harts (soc.System, a cosim session) calls this from each core's
// MemWriteHook.
func BroadcastWrite(harts []*Core, pa uint64, size int, from int) {
	for _, c := range harts {
		if c.ID != from {
			c.KillReservation(pa, size)
			c.squashCoherentLoads(pa, size)
		}
	}
}

// squashCoherentLoads tags this hart's executed-but-uncommitted loads that
// overlap a remote hart's committed write for squash-and-retry at the ROB
// head — the snoop-triggered machine clear a real SMP core performs so a
// speculatively-read value never survives a conflicting remote store. The
// existing §V-A retire-time squash machinery re-fetches the load and it
// re-reads coherent memory.
func (c *Core) squashCoherentLoads(pa uint64, size int) {
	for i := 0; i < c.lq.len(); i++ {
		le := c.lq.at(i)
		if !le.executed || !overlap(pa, size, le.addr, le.size) {
			continue
		}
		lu := c.robQ.slot(le.robIdx)
		if lu.seq == le.seq && !lu.squashRetry {
			lu.squashRetry = true
			c.Stats.CrossHartSquashes++
		}
	}
}

// execStoreData is the st.data µOp: it reads the data operand from the
// physical register file (or the bypass network) into the SQ entry.
func (c *Core) execStoreData(u *uop) bool {
	if u.dataDone {
		return false
	}
	val, ready := c.storeDataVal(u)
	if !ready {
		return false
	}
	u.dataDone = true
	if e := c.findSQ(u); e != nil {
		e.val = val
		e.dataDone = true
	}
	c.finishStoreIfReady(u)
	return true
}

// finishStoreIfReady marks the store complete once both µOps have merged in
// the write buffer (§V-B).
func (c *Core) finishStoreIfReady(u *uop) {
	if u.addrDone && u.dataDone && !u.done {
		u.done = true
		u.readyAt = c.now + 1
	}
}

// execLoad is the load pipe (AG/DC/DA/WB, §V-A): address generation and
// translation, store-queue search with forwarding, dependence-predictor
// blocking, then the D-cache access. Unaligned accesses crossing a line pay a
// second access (§II: the LSU supports unaligned data access).
func (c *Core) execLoad(idx int, u *uop) bool {
	if !c.srcsReady(u) {
		return false
	}
	// in-flight vector stores and atomics are not in the SQ; loads younger
	// than one wait until it commits its memory effect
	if c.hasOlderPendingVStore(u.seq) {
		return false
	}
	size := u.memSize()
	va := isa.MemAddr(u.inst.Op, c.srcVal(u, 0), c.srcVal(u, 1), u.inst.Imm)
	pa, doneT, err := c.mmuTranslate(va, mmuAccLoad)
	if err != nil {
		u.excCause = int16(err.(*mmu.PageFault).Cause())
		u.excTval = va
		u.done, u.issued = true, true
		u.readyAt = c.now + 1
		return true
	}

	// device loads have side effects (PLIC claim): they start only at the ROB
	// head, bypassing the cache hierarchy, and the read itself happens at the
	// pop (commitDeviceLoad)
	if c.MMIO != nil && c.MMIO.Covers(pa) {
		if c.robQ.front().seq != u.seq {
			return false
		}
		if le := c.findLQ(u); le != nil {
			le.addr = pa
			le.size = size
			le.executed = true
		}
		u.addr = pa
		u.done, u.issued = true, true
		u.readyAt = doneT + 20 // uncached device access
		u.effectPending = true
		c.Stats.Loads++
		return true
	}

	// dependence-predicted loads wait until all older store addresses are known
	blocked := c.Cfg.MemDepPredict && len(c.memDep) > 0 && c.memDep[u.pc]
	var fwdVal uint64
	fwd := false
	for i := 0; i < c.sq.len(); i++ {
		e := c.sq.at(i)
		if e.seq >= u.seq {
			continue
		}
		if !e.addrDone {
			if blocked || !c.Cfg.MemDepPredict {
				return false // conservative: wait for the older address
			}
			continue // speculate past the unknown-address store
		}
		if !overlap(pa, size, e.addr, e.size) {
			continue
		}
		// overlapping older store: forward when it fully covers the load
		if e.dataDone && covers(e.addr, e.size, pa, size) {
			sh := (pa - e.addr) * 8
			fwdVal = e.val >> sh
			fwd = true
			continue // a younger matching store may override — keep scanning
		}
		return false // partial overlap or data not ready: wait
	}

	var value uint64
	var done uint64
	if fwd {
		value = fwdVal
		done = doneT + 3 // forwarded through the DA stage
		u.fwd = true
		c.Stats.StoreForwards++
	} else {
		value = c.Mem.Read(pa, size)
		var hit bool
		done, hit = c.L1D.Access(pa, false, doneT)
		u.memLevel = c.L1D.LastLevel
		if crossesLine(pa, size, c.Cfg.L1D.LineBytes) {
			d2, _ := c.L1D.Access(pa+uint64(size)-1, false, doneT)
			if d2 > done {
				done = d2
			}
			if c.L1D.LastLevel > u.memLevel {
				u.memLevel = c.L1D.LastLevel // deeper half dominates the stall
			}
			c.Stats.UnalignedAccesses++
		}
		done += uint64(1) // DA stage
		if !hit {
			c.Stats.LoadMisses++
		}
	}
	c.PF.Train(va, c.now)

	value = isa.ExtendLoad(u.inst.Op, value, size)
	c.pf.write(u.newPhys, value, done+1) // WB stage
	if le := c.findLQ(u); le != nil {
		le.addr = pa
		le.size = size
		le.executed = true
	}
	u.addr = pa
	u.done, u.issued = true, true
	u.readyAt = done + 1
	c.Stats.Loads++
	return true
}

// hasOlderPendingVStore reports whether a vector store or atomic older than
// seq is in flight. Every one in the ROB counts: until its pop it either has
// not executed or holds a memory effect that lands there (an atomic past its
// cache access, an executed vector store), and one that faulted traps in the
// cycle it reaches the head.
func (c *Core) hasOlderPendingVStore(seq uint64) bool {
	return c.blockingMemOps > 0 && c.oldestBlocker < seq
}

// popBlocker retires the oldest in-flight vector store or atomic — the ROB
// head that just popped — and finds the one that is oldest now. One ROB walk
// per retired blocker replaces one per failed load poll.
func (c *Core) popBlocker() {
	c.blockingMemOps--
	for i := 0; c.blockingMemOps > 0 && i < c.robQ.len(); i++ {
		if u := c.robQ.at(i); u.flags&sfBlocksLoads != 0 {
			c.oldestBlocker = u.seq
			return
		}
	}
}

func overlap(a uint64, an int, b uint64, bn int) bool {
	return a < b+uint64(bn) && b < a+uint64(an)
}

func covers(outer uint64, on int, inner uint64, in int) bool {
	return outer <= inner && inner+uint64(in) <= outer+uint64(on)
}

func crossesLine(addr uint64, size, line int) bool {
	return addr/uint64(line) != (addr+uint64(size)-1)/uint64(line)
}
