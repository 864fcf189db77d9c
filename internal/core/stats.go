package core

import (
	"fmt"
	"slices"

	"xt910/isa"
)

// Stats aggregates the performance counters the XT-910's performance monitor
// unit exposes (§II) and the harness reports.
type Stats struct {
	Cycles  uint64
	Retired uint64
	Renamed uint64
	Issued  uint64

	Branches      uint64
	BrMispredicts uint64
	Flushes       uint64

	Loads              uint64
	Stores             uint64
	Atomics            uint64
	LoadMisses         uint64
	StoreForwards      uint64
	UnalignedAccesses  uint64
	MemOrderViolations uint64
	MemOrderFlushes    uint64
	CrossHartSquashes  uint64
	SerializeFlushes   uint64
	Traps              uint64
	Interrupts         uint64
	WFIParkedCycles    uint64

	StallROB  uint64
	StallLQ   uint64
	StallSQ   uint64
	StallIQ   uint64
	StallPhys uint64
	StallCkpt uint64

	FetchJalrStalls  uint64
	L0BTBRedirects   uint64
	LoopBufRedirects uint64
	LoopBufInsts     uint64

	VecOps      uint64
	VlSpecFails uint64

	PFDroppedTLB uint64

	// PredecodeHits/Misses count fetch-path decodes served by (or filled
	// into) the host-side predecode cache; SuperblockHits counts decodes
	// replayed from cached fetch-group runs (which bypass the per-
	// instruction cache entirely, so toggling superblocks shifts the
	// Predecode* counters too — these three are the only host-side counters
	// that may differ between superblock-on and superblock-off runs).
	PredecodeHits   uint64
	PredecodeMisses uint64
	SuperblockHits  uint64

	// HeadStall* histogram why retirement was blocked (cycles, by the class
	// of the ROB-head instruction) — the profiler view of where time goes.
	HeadStallLoad  uint64
	HeadStallStore uint64
	HeadStallFPU   uint64
	HeadStallALU   uint64
	HeadStallVec   uint64
	HeadStallOther uint64
	HeadStallEmpty uint64
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// MispredictRate returns branch mispredictions per branch.
func (s *Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.BrMispredicts) / float64(s.Branches)
}

// String summarizes the headline counters.
func (s *Stats) String() string {
	return fmt.Sprintf("cycles=%d retired=%d IPC=%.3f branches=%d mispred=%.2f%% loads=%d stores=%d fwd=%d flushes=%d",
		s.Cycles, s.Retired, s.IPC(), s.Branches, 100*s.MispredictRate(),
		s.Loads, s.Stores, s.StoreForwards, s.Flushes)
}

// CheckInvariants validates internal pipeline consistency; tests call it
// after runs to catch resource leaks early. It returns a description of the
// first violation found, or "" when everything holds.
func (c *Core) CheckInvariants() string {
	// free list entries must be unique and disjoint from the retirement map
	seen := make(map[int16]bool, len(c.pf.free))
	for _, p := range c.pf.free {
		if seen[p] {
			return "duplicate physical register on the free list"
		}
		seen[p] = true
	}
	held := make([]int16, len(c.pf.held))
	for r, p := range c.archRAT {
		if seen[p] {
			return "architectural register " + isa.Reg(r).String() + " maps to a freed physical register"
		}
		held[p]++
	}
	if !slices.Equal(held, c.pf.held) {
		return "held-register counts out of step with the retirement map"
	}
	// every issue-queue entry must reference a live ROB slot
	for pipe := range c.queues {
		for _, idx := range c.queues[pipe] {
			if !c.robQ.live(idx) {
				return "issue queue references a dead ROB slot"
			}
		}
	}
	// LQ/SQ entries must be ordered by sequence number
	for i := 1; i < c.lq.len(); i++ {
		if c.lq.at(i-1).seq >= c.lq.at(i).seq {
			return "load queue out of order"
		}
	}
	for i := 1; i < c.sq.len(); i++ {
		if c.sq.at(i-1).seq >= c.sq.at(i).seq {
			return "store queue out of order"
		}
	}
	// the vector-store/atomic counter must match what is in the ROB
	blocking := 0
	for i := 0; i < c.robQ.len(); i++ {
		if u := c.robQ.at(i); u.flags&sfBlocksLoads != 0 {
			if blocking++; blocking == 1 && u.seq != c.oldestBlocker {
				return "oldest in-flight vector store/atomic is not the one recorded"
			}
		}
	}
	if blocking != c.blockingMemOps {
		return "in-flight vector-store/atomic count out of step with the ROB"
	}
	// vecLog: one record per executed, unretired vector µop, in ROB order and
	// none past an unresolved branch; vecStores: their element writes; with
	// nothing logged the speculative unit is the committed one
	logged, writes, unresolved := 0, 0, false
	for i := 0; i < c.robQ.len(); i++ {
		u := c.robQ.at(i)
		unresolved = unresolved || u.isCtrl() && !u.done
		if u.flags&sfVector == 0 || !u.effectPending {
			continue
		}
		if unresolved || logged == c.vecLog.len() || c.vecLog.at(logged).seq != u.seq {
			return "vector log out of step with the ROB, or past an unresolved branch"
		}
		writes += int(c.vecLog.at(logged).writes)
		logged++
	}
	if logged != c.vecLog.len() || writes != c.vecStores.len() {
		return "vector log holds records or element writes no µop in the ROB owns"
	}
	if logged == 0 && c.Vec != nil && (c.specVec.VL != c.Vec.VL ||
		c.specVec.VType != c.Vec.VType || !c.specVec.File.Equal(c.Vec.File)) {
		return "speculative vector unit differs from the committed one with nothing in flight"
	}
	return ""
}
