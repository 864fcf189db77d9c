package core

import (
	"xt910/isa"
)

// Event-driven fast-forward: Run skips stall windows — spans of cycles where
// provably no pipeline stage can make progress — in one jump, generalizing
// the WFI-parking special case from the interrupt protocol. It is a host
// optimization with the same contract as the predecode cache: Stats, CPI
// buckets and architectural state are byte-identical with it on or off.
//
// The soundness argument rests on the model being pull-based: caches, DRAM,
// the MMU and the prefetcher are all keyed on the `now` passed into an
// access, and nothing in the machine mutates state in a cycle where no stage
// acts. A cycle is provably inert when
//
//   - retire cannot act: the ROB head is stalled (not done, or done with a
//     future readyAt) and is not squash/at-retire special-cased,
//   - issue cannot act: every queued µop's earliest-possible issue cycle — a
//     lower bound from its minIssue, its pipe's busy window and its sources'
//     register-file ready times — lies in the future,
//   - rename cannot act: the fetch queue is empty, its head is not yet
//     decoded, or the ROB is full,
//   - fetch cannot act: stalled on a jalr, throttled by fetchAllowed, or the
//     fetch queue is full.
//
// The skip lands on the earliest of those future events, so the cycle where
// work resumes is stepped normally. Issue estimates are lower bounds, never
// exact: a µop whose estimate arrives may still fail its full gating (store-
// queue conflicts, dependence prediction), but that only wakes the stepped
// loop early, never late — and every failure path in the issue/LSU code is
// side-effect-free, so a skipped cycle and a stepped-but-inert cycle are
// indistinguishable once the per-cycle stall counters (HeadStall*, StallROB)
// and the CPI bucket are replicated over the window.
//
// The skip self-disables whenever an interrupt source or MMIO device is
// attached (per-cycle sampling must observe every boundary; cosim sessions
// drive Step directly and never enter this path) and whenever a vector µop
// is in flight (the vector queue gates on scoreboards and quiesce state the
// estimator does not model).

const ffNever = ^uint64(0)

// ffSkip jumps c.now to the next event if the current cycle is provably
// inert, replicating per-cycle counters over the window. It reports whether
// it advanced time; the caller steps normally otherwise. target caps the jump
// (Run's cycle budget), so an event-free machine — a genuine hang — burns its
// budget in one skip exactly as the stepped loop would burn it spinning.
func (c *Core) ffSkip(target uint64) bool {
	if c.IntSource != nil || c.MMIO != nil || c.wfiWait || c.robQ.empty() {
		return false
	}
	head := c.robQ.front()
	if head.squashRetry {
		return false
	}
	next := uint64(ffNever)
	if head.done {
		if head.readyAt <= c.now {
			return false // head retires this cycle
		}
		next = head.readyAt
	} else if head.atRetire {
		return false // executes at the head; each attempt may touch the cache
	}

	// fetch: inert iff stalled, throttled into the future, or queue-full
	if !c.fetchWait && c.fq.len() < c.Cfg.FetchQueue {
		if c.fetchAllowed <= c.now {
			return false
		}
		if c.fetchAllowed < next {
			next = c.fetchAllowed
		}
	}

	// rename: inert iff nothing decoded, head entry not ready, ROB full (the
	// ROB-full case wakes via head.readyAt; StallROB accrues below), or
	// structurally blocked — a per-cycle stall counter accrues in that case
	var renameStall *uint64
	if c.fq.len() > 0 && !c.robQ.full() {
		r := c.fq.front().readyAt
		if r > c.now {
			if r < next {
				next = r
			}
		} else if e := c.fq.front(); c.renameCost(e) <= c.Cfg.RenameWidth {
			// The gates read only queue lengths, checkpoint occupancy and the
			// phys free list, none of which change across an inert window, so
			// the gate that blocks this cycle blocks every cycle of it. (An
			// instruction wider than the rename stage is silently stuck:
			// blocked, no counter.)
			if renameStall = c.renameGates(e).stall; renameStall == nil {
				return false // rename would make progress this cycle
			}
		}
	}

	// issue: earliest lower-bound issue cycle over every queued µop
	for p := pipeID(0); p < numPipes; p++ {
		floor := c.pipeBusy[p]
		for _, idx := range c.queues[p] {
			u := c.robQ.slot(idx)
			if (p == pipeFV0 || p == pipeFV1) && u.class != isa.ClassFPU {
				return false // vector µop in flight: never skip
			}
			est, known := c.ffIssueEstimate(p, u, floor)
			if known {
				if est <= c.now {
					return false // an issue attempt could happen this cycle
				}
				if est < next {
					next = est
				}
			}
			// unknown estimate: a source's producer has not issued yet, so
			// this µop cannot act before an event already tracked (the
			// producer's own issue estimate)
			if !c.Cfg.OutOfOrder {
				break // in-order: the queue head gates everything younger
			}
		}
	}

	if next <= c.now {
		return false
	}
	skipTo := next
	if skipTo > target {
		skipTo = target
	}
	n := skipTo - c.now
	if n == 0 {
		return false
	}

	// Replicate exactly what n stepped-but-inert cycles would have recorded:
	// retire's head-stall attribution, rename's ROB-full stall, and the CPI
	// bucket for a backend-bound cycle with this head class.
	*c.headStallCounter(head) += n
	if renameStall != nil {
		*renameStall += n
	}
	if c.robQ.full() && c.fq.len() > 0 {
		from := c.fq.front().readyAt
		if from < c.now {
			from = c.now
		}
		if from < skipTo {
			c.Stats.StallROB += skipTo - from
		}
	}
	if c.tr != nil {
		// The window's head cannot retire, issue or change memLevel across an
		// inert window, so n batched cycles attribute exactly as n stepped
		// ones would: same class, same mem sub-bucket, same owning PC.
		cl, sub, pc := headCycleAttr(head)
		c.tr.CycleN(cl, sub, pc, n)
	}
	c.ffSkippedCycles += n
	c.now = skipTo
	c.Stats.Cycles = c.now
	return true
}

// ffIssueEstimate lower-bounds the cycle µop u could issue on pipe p: the
// max of its minIssue, the pipe's busy window and its relevant sources'
// ready cycles. known is false when a source is still pending (its producer
// has not issued), in which case the µop carries no event of its own.
func (c *Core) ffIssueEstimate(p pipeID, u *uop, floor uint64) (est uint64, known bool) {
	est = u.minIssue
	if floor > est {
		est = floor
	}
	upd := func(phys int16) bool {
		r := c.pf.readyCycle(phys)
		if r == pendingCycle {
			return false
		}
		if r > est {
			est = r
		}
		return true
	}
	if u.isStore() && (p == pipeSTA || p == pipeSTD) {
		if p == pipeSTA {
			// st.addr leg: address operands, plus the data operand for the
			// unified (non-split) store µop, mirroring execStoreAddr
			if !upd(u.srcPhys[0]) {
				return 0, false
			}
			switch u.inst.Op {
			case isa.XSRB, isa.XSRH, isa.XSRW, isa.XSRD:
				if !upd(u.srcPhys[1]) {
					return 0, false
				}
			}
			if !c.Cfg.SplitStores && !upd(c.ffStoreDataPhys(u)) {
				return 0, false
			}
			return est, true
		}
		// st.data leg: the data operand only, mirroring storeDataVal
		if !upd(c.ffStoreDataPhys(u)) {
			return 0, false
		}
		return est, true
	}
	for i := 0; i < int(u.nsrc); i++ {
		if !upd(u.srcPhys[i]) {
			return 0, false
		}
	}
	return est, true
}

// ffStoreDataPhys mirrors storeDataVal's source selection without reading
// the value: the physical register the store's data comes from, or noPhys
// when the data is constant-ready (storing x0).
func (c *Core) ffStoreDataPhys(u *uop) int16 {
	switch u.inst.Op {
	case isa.XSRB, isa.XSRH, isa.XSRW, isa.XSRD:
		if u.nsrc >= 3 {
			return u.srcPhys[2]
		}
	default:
		if u.inst.Rs2 == isa.Zero || u.inst.Rs2 == isa.RegNone {
			return noPhys
		}
		if u.nsrc >= 2 {
			return u.srcPhys[1]
		}
	}
	return noPhys
}
