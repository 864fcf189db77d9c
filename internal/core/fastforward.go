package core

// The event-driven clock: every driver passes idle time the same way. It asks
// NextEvent for the earliest cycle at which any stage of this core could act
// and, when that lies in the future, has AdvanceIdle replicate the per-cycle
// counters over the window instead of stepping it — Core.Run for a bare core,
// soc.System.Advance for every machine's harts at once. It is a host
// optimization with the same contract as the predecode cache: Stats, CPI
// buckets and architectural state are byte-identical with it on or off.
//
// The soundness argument rests on the model being pull-based: caches, DRAM,
// the MMU and the prefetcher are all keyed on the `now` passed into an
// access, and nothing in the machine mutates state in a cycle where no stage
// acts. A cycle is inert when the hart is parked on WFI with no enabled
// interrupt pending (no stage acts), or when
//
//   - no interrupt is both pending and deliverable,
//   - retire cannot act: the ROB is empty, or its head is stalled (not done,
//     or done with a future readyAt) and not squash/at-retire special-cased,
//   - issue cannot act: every queued µop's earliest-possible issue cycle — a
//     lower bound from its minIssue, its pipe's busy window and its sources'
//     ready times, for the vector queue's head its scoreboards too — lies in
//     the future, or only another µop's execute or pop can release it,
//   - rename cannot act: the fetch queue is empty, its head is not yet
//     decoded, the ROB is full, or a structural gate blocks it,
//   - fetch cannot act: stalled on a jalr, throttled by fetchAllowed, or the
//     fetch queue is full.
//
// Estimates are lower bounds: a µop whose estimate arrives may still fail its
// full gating, which only wakes the stepped loop early — every failure path
// in the issue/LSU code is side-effect-free. Devices are outside the model:
// an IntSource or MMIO window may change only in a stepped cycle or between
// windows, and the driver vouches for that. System.Advance can (registers
// and schedules change only at a commit, which is never inert, and it ends a
// window at mtime's next compare edge); Run cannot and refuses.

const ffNever = ^uint64(0)

// FFStats are the host fast-path counters of the event-driven clock. They
// stay out of Stats so the byte-identity contract covers that whole struct.
type FFStats struct {
	Windows           uint64 // idle windows jumped
	Backend, Frontend uint64 // cycles elided behind a stalled ROB head / with an empty ROB or parked
	Armed             uint64 // of those, cycles elided with an interrupt source attached
}

// Elided is the number of cycles that were never stepped.
func (f FFStats) Elided() uint64 { return f.Backend + f.Frontend }

// Add accumulates another core's counters.
func (f *FFStats) Add(o FFStats) {
	f.Windows += o.Windows
	f.Backend += o.Backend
	f.Frontend += o.Frontend
	f.Armed += o.Armed
}

// FastForwardStats returns the clock's host-side counters.
func (c *Core) FastForwardStats() FFStats { return c.ff }

// NextEvent returns the earliest cycle at which any stage of the core could
// act: Now() when one can this cycle (or Cfg.FastForward is off), later when
// every cycle before it is inert (for a parked hart: never, until an enabled
// interrupt pends). It changes nothing. The caller vouches that IntSource and
// MMIO change only in cycles it steps.
func (c *Core) NextEvent() uint64 {
	if !c.Cfg.FastForward || c.pendingBits() != 0 && (c.wfiWait || c.priv.Deliverable()) {
		return c.now
	}
	if c.wfiWait {
		return ffNever
	}
	next := uint64(ffNever)
	if c.robQ.empty() {
		// the CPI class of an empty-ROB cycle turns at these; stop at the first
		for _, t := range [...]uint64{c.badSpecUntil, c.feICacheUntil, c.feITLBUntil, c.feRedirectUntil} {
			if t > c.now {
				next = min(next, t)
			}
		}
	} else if head := c.robQ.front(); head.squashRetry {
		return c.now
	} else if head.done {
		if head.readyAt <= c.now {
			return c.now // head retires this cycle
		}
		next = head.readyAt
	} else if head.atRetire {
		return c.now // executes at the head; each attempt may touch the cache
	}

	// fetch: inert iff stalled, throttled into the future, or queue-full
	if !c.fetchWait && c.fq.len() < c.Cfg.FetchQueue {
		if c.fetchAllowed <= c.now {
			return c.now
		}
		next = min(next, c.fetchAllowed)
	}

	// rename: inert iff nothing decoded, head entry not ready, ROB full (which
	// wakes via head.readyAt) or structurally blocked. The gates read only
	// queue lengths, checkpoint occupancy and the phys free list, none of
	// which change across an inert window, so the gate that blocks this cycle
	// blocks every cycle of it. (An instruction wider than the rename stage is
	// silently stuck: blocked, no counter.)
	if c.fq.len() > 0 && !c.robQ.full() {
		e := c.fq.front()
		if e.readyAt > c.now {
			next = min(next, e.readyAt)
		} else if c.renameCost(e) <= c.Cfg.RenameWidth && c.renameGates(e).stall == nil {
			return c.now // rename would make progress this cycle
		}
	}

	// issue: earliest lower-bound issue cycle over every queued µop. In order,
	// a head younger than the oldest unissued µop waits for that one
	// (allOlderIssued), which heads its own queue and carries the event.
	gate := uint64(ffNever)
	if !c.Cfg.OutOfOrder {
		gate = c.oldestUnissued()
	}
	for p := pipeID(0); p < numPipes; p++ {
		floor := c.pipeBusy[p]
		for _, idx := range c.queues[p] {
			u := c.robQ.slot(idx)
			if u.seq > gate {
				break
			}
			// An unknown estimate carries no event of its own: a source's
			// producer has not issued yet (its own estimate is tracked), or an
			// ordering gate holds the µop that only another µop's execute or
			// pop releases — a load behind an atomic or vector store (the
			// head's event tracks the pop), the vector queue's head.
			est, known := c.ffIssueEstimate(p, u, floor)
			vec := u.flags&sfVector != 0
			if vec && known {
				at, held := c.vectorGates(u)
				est = max(est, at)
				known = est > c.now || !held
			}
			if known {
				if est > c.now {
					next = min(next, est)
				} else if p != pipeLD || !c.hasOlderPendingVStore(u.seq) {
					return c.now // an issue attempt could happen this cycle
				}
			}
			if vec || !c.Cfg.OutOfOrder {
				break // nothing passes the ordered vector queue's head, or an in-order queue's
			}
		}
	}
	return next
}

// AdvanceIdle jumps the clock to cycle `to`, recording exactly what the
// to-Now() stepped-but-inert cycles would have: retire's head-stall
// attribution, rename's stall counter and the cycle's CPI bucket, or for a
// parked hart the park counter and its frontend bucket. Every cycle in
// [Now(), to) must be inert: to may not pass NextEvent(). A genuine hang — no
// event at all — burns its budget in one jump exactly as stepping would.
func (c *Core) AdvanceIdle(to uint64) {
	n := to - c.now
	switch {
	case c.wfiWait: // as Step's park branch counts each cycle
		c.Stats.WFIParkedCycles += n
		c.ff.Frontend += n
	case c.robQ.empty():
		c.Stats.HeadStallEmpty += n
		c.ff.Frontend += n
	default:
		*c.headStallCounter(c.robQ.front()) += n
		c.ff.Backend += n
	}
	if c.fq.len() > 0 && !c.wfiWait {
		if e := c.fq.front(); c.robQ.full() {
			if from := max(e.readyAt, c.now); from < to {
				c.Stats.StallROB += to - from
			}
		} else if e.readyAt <= c.now && c.renameCost(e) <= c.Cfg.RenameWidth {
			*c.renameGates(e).stall += n // inert with a decoded head: a gate blocks it
		}
	}
	if c.tr != nil {
		// Nothing retires, issues or changes memLevel across an inert window,
		// and an empty-ROB window ends where its class would turn, so n
		// batched cycles attribute exactly as n stepped ones would.
		cl, sub, pc := c.cycleAttr(0)
		c.tr.CycleN(cl, sub, pc, n)
	}
	c.ff.Windows++
	if c.IntSource != nil {
		c.ff.Armed += n
	}
	c.now = to
	c.Stats.Cycles += n
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
			for _, phys := range u.storeAddrPhys() {
				if !upd(phys) {
					return 0, false
				}
			}
			if !c.Cfg.SplitStores && !upd(u.storeDataPhys()) {
				return 0, false
			}
			return est, true
		}
		// st.data leg: the data operand only, mirroring storeDataVal
		if !upd(u.storeDataPhys()) {
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
