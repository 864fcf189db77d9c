package core

import (
	"xt910/internal/branch"
	"xt910/internal/coherence"
	"xt910/internal/mem"
	"xt910/internal/mmu"
	"xt910/internal/prefetch"
	"xt910/internal/recycle"
	"xt910/internal/trace"
	"xt910/internal/vector"
	"xt910/isa"
)

// Core is one XT-910 hart: the 12-stage pipeline plus its private L1 caches,
// MMU and predictors, attached to a cluster's shared L2.
type Core struct {
	Cfg Config
	ID  int

	Mem *mem.Memory
	L1I *coherence.L1I
	L1D *coherence.L1D
	L2  *coherence.L2
	MMU *mmu.MMU

	Dir     *branch.DirectionPredictor
	L0BTB   *branch.BTB
	L1BTB   *branch.BTB
	RAS     *branch.RAS
	Ind     *branch.IndirectPredictor
	LoopBuf *branch.LoopBuffer
	PF      *prefetch.Engine

	// Vec is the committed vector unit, the rest its speculative side
	// (vcommit.go); all nil or empty without Cfg.EnableVector.
	Vec       *vector.Unit
	specVec   *vector.Unit
	vecLog    ring[vecEffect]
	vecBytes  []byte
	vecStores ring[vecWrite]

	// code reads fetched words for decodeAt and superblock replay, holding
	// the code page between fetches.
	code mem.Code

	// predec caches raw fetch words → decoded instructions (predecode.go);
	// nil when Cfg.PredecodeCache is off.
	predec *predecode

	// sblk caches whole decoded fetch-group walks (superblock.go); nil when
	// Cfg.PredecodeSuperblock is off. sbBuild is the block the current fetch
	// group records into on a superblock miss; it lives here so a fetch
	// resets two fields instead of zeroing a block on its stack.
	sblk    *superblockCache
	sbBuild sbBlock

	// pipeline state
	now      uint64
	seq      uint64
	pf       physFile
	rat      []int16         // speculative front-end map
	archRAT  []int16         // retirement map
	robQ     ring[uop]       // re-order buffer: in-order retirement (§IV)
	queues   [numPipes][]int // ROB indices per issue queue, cut from queueBuf
	queueBuf []int
	pipeBusy [numPipes]uint64
	ckpts    []checkpoint

	lq ring[lqEntry]
	sq ring[sqEntry]
	// blockingMemOps counts the in-flight vector stores and atomics (µops
	// flagged sfBlocksLoads anywhere in the ROB) and oldestBlocker is the seq
	// of the oldest: a load younger than it waits (hasOlderPendingVStore).
	blockingMemOps int
	oldestBlocker  uint64

	fq           ring[fqEntry] // IBUF
	fetchPC      uint64
	fetchAllowed uint64
	fetchWait    bool // stalled on an unpredictable jalr / post-flush hold

	// vector scoreboard and configuration speculation state
	vregReady [32]uint64
	vecBusy   uint64
	lastVL    uint64

	// memory-dependence predictor: load PCs that caused ordering violations
	// are tagged and later forced to wait for older store addresses (§V-A).
	memDep map[uint64]bool

	// tr, when non-nil, receives per-µop pipeline lifecycle events and the
	// per-cycle CPI-stack attribution (internal/trace). Every call site is
	// guarded by a nil check, so a detached core pays one predictable branch
	// per event point and nothing else.
	tr *trace.Tracer
	ff FFStats // the event-driven clock's host-side counters (fastforward.go)
	// badSpecUntil marks the recovery window after a misprediction or
	// memory-order squash; empty-ROB cycles inside it are attributed to the
	// bad-speculation CPI bucket rather than frontend-bound.
	badSpecUntil uint64
	// Frontend sub-bucket windows for the CPI stack's second level: an
	// empty-ROB frontend cycle inside one of these is refined to the
	// corresponding sub-bucket (priority icache > itlb > redirect; everything
	// else is frontend/other). Trace-only state — never read by the pipeline.
	feICacheUntil   uint64 // until the in-flight L1I miss fill lands
	feITLBUntil     uint64 // until the in-flight ITLB walk completes
	feRedirectUntil uint64 // until the current redirect/flush bubble drains

	// architectural system state (privilege, CSRs) — owned by retire.
	priv    isa.Priv
	resAddr uint64
	resOK   bool

	Halted   bool
	ExitCode int
	Output   []byte

	Stats Stats

	// CommitHook observes every retired instruction with its commit record
	// (destination value, effective address), which is the core's own and
	// valid only during the call. It fires after the retirement map has been
	// updated, so Reg() reads post-commit architectural state. Instructions
	// that take an exception do not commit and are not reported.
	CommitHook func(*Commit)
	commitRec  Commit

	// TLBBroadcast, when set by the SoC, carries tlbi.* maintenance to the
	// other harts over the interconnect (§V-E, no IPIs needed).
	TLBBroadcast func(op isa.Op, operand uint64, from int)

	// MemWriteHook, when set by the SoC, observes every committed memory
	// write so other harts' LR/SC reservations can be invalidated through
	// the coherence fabric.
	MemWriteHook func(pa uint64, size int, from int)

	// MMIO, when set by the SoC, claims physical address ranges for devices
	// (CLINT, PLIC). MMIO loads start non-speculatively at the ROB head and
	// read the device at retirement; MMIO stores take effect at retirement
	// like all stores.
	MMIO mem.Device

	// IntSource, when set by the SoC, returns the externally-driven mip bits
	// (MSIP/MTIP/MEIP) for this hart, sampled at every cycle boundary and
	// between same-cycle retirements.
	IntSource func(hart int) uint64

	// InterruptHook observes every taken interrupt with its cause and the
	// resume PC written to mepc (the oldest unretired instruction). It fires
	// after the flush, so CSRs read post-delivery state.
	InterruptHook func(cause uint64, resume uint64)

	wfiWait bool
}

// WFIParked reports whether the hart is parked on a wfi waiting for an
// interrupt source.
func (c *Core) WFIParked() bool { return c.wfiWait }

type lqEntry struct {
	seq      uint64
	robIdx   int
	addr     uint64
	size     int
	executed bool
}

type sqEntry struct {
	seq      uint64
	robIdx   int
	addr     uint64
	size     int
	val      uint64
	addrDone bool
	dataDone bool
}

// fqEntry is one IBUF slot: a pre-cracked instruction with its fetch-time
// prediction. Like ROB entries, slots are filled in place (ring.tail): fetch
// assigns every field above br for every instruction and br for control
// instructions only.
type fqEntry struct {
	sinst
	pc      uint64
	readyAt uint64
	excTval uint64
	// fetchLag is readyAt minus the cycle the fetch group was initiated
	// (trace StageFetch).
	fetchLag  uint32
	excCause  int16 // -1: none
	predTaken bool
	fromLoop  bool

	br brState
}

// New builds a core attached to a cluster L2.
func New(cfg Config, id int, memory *mem.Memory, l2 *coherence.L2) *Core {
	c := &Core{
		Cfg:    cfg,
		ID:     id,
		Mem:    memory,
		L2:     l2,
		L1I:    coherence.NewL1I(cfg.L1I, l2),
		L1D:    coherence.NewL1D(cfg.L1D, l2),
		Dir:    branch.NewDirectionPredictor(14),
		L0BTB:  branch.NewBTB(16, 16),
		L1BTB:  branch.NewBTB(cfg.L1BTBEntries, 4),
		RAS:    branch.NewRAS(16),
		Ind:    branch.NewIndirectPredictor(12),
		robQ:   newRing(&freeUops, cfg.ROBSize),
		fq:     newRing(&freeFqEntries, cfg.FetchQueue),
		lq:     newRing(&freeLqEntries, cfg.LQSize),
		sq:     newRing(&freeSqEntries, cfg.SQSize),
		ckpts:  freeCkpts.Get(cfg.Checkpoints),
		memDep: make(map[uint64]bool),
		priv:   isa.Priv{Level: isa.PrivM},
	}
	c.LoopBuf = branch.NewLoopBuffer()
	c.MMU = mmu.New(func(pa uint64, now uint64) (uint64, uint64) {
		return memory.Read(pa, 8), l2.ReadWord(pa, now)
	})
	if cfg.UTLBEntries > 0 {
		c.MMU.Micro = mmu.NewMicroTLB(cfg.UTLBEntries)
	}
	if cfg.JTLBEntries > 0 {
		c.MMU.Joint = mmu.NewJointTLB(cfg.JTLBEntries, 4)
	}
	c.PF = prefetch.New(cfg.Prefetch, c)
	if cfg.EnableVector {
		c.Vec, c.specVec = vector.NewUnit(), vector.NewUnit()
		c.vecLog = newRing(&freeVecEffects, cfg.ROBSize)
		c.vecBytes = freeVecBytes.Get(cfg.ROBSize * maxGroupBytes)
		// the most element writes one vector store makes: LMUL 8 of bytes
		c.vecStores = newRing(&freeVecWrites, vector.VLEN)
	}
	c.pf, c.rat, c.archRAT = newPhysFile(cfg.IntPhysRegs, cfg.FpPhysRegs)
	c.newQueues()
	c.priv.Write(isa.CSRMhartid, uint64(id))
	if cfg.PredecodeCache {
		c.predec = newPredecode()
	}
	if cfg.PredecodeSuperblock {
		c.sblk = newSuperblockCache()
	}
	return c
}

// newQueues cuts the per-pipe issue queues out of one array from
// freeQueueSlots. renameGates holds a pipe's queue at IssueQueue entries; the
// st.data queue, which rename fills beside st.addr's, holds at most one entry
// per store-queue slot. Each queue is a three-index slice, so an append past
// its bound could only reallocate, never run into the next queue.
func (c *Core) newQueues() {
	std := max(c.Cfg.IssueQueue, c.Cfg.SQSize)
	c.queueBuf = freeQueueSlots.Get(int(numPipes-1)*c.Cfg.IssueQueue + std)
	at := 0
	for p := range c.queues {
		n := c.Cfg.IssueQueue
		if p == int(pipeSTD) {
			n = std
		}
		c.queues[p] = c.queueBuf[at : at : at+n]
		at += n
	}
}

// The free lists behind Release: the ring arrays, issue queues, register
// file and checkpoints here, the decode tables in predecode.go and
// superblock.go, everything else in the package that owns it.
var (
	freeUops       recycle.Slices[uop]
	freeFqEntries  recycle.Slices[fqEntry]
	freeLqEntries  recycle.Slices[lqEntry]
	freeSqEntries  recycle.Slices[sqEntry]
	freeQueueSlots recycle.Slices[int]
	freeRegWords   recycle.Slices[uint64]
	freeRegMaps    recycle.Slices[int16]
	freeCkpts      recycle.Slices[checkpoint]
)

// Release hands the core's large tables — L1 tags, decode tables, joint TLB,
// predictor tables, the ROB, IBUF, load/store queue and vector-log rings, the
// issue queues, register file, rename maps, checkpoints and vector units — to
// the cores built after it, each back in the state its constructor expects (DESIGN.md
// "Session storage recycling"). The core must not be used afterwards. Only
// the code that built a core, and let nobody else see it, may call this.
func (c *Core) Release() {
	c.L1I.Cache.Release()
	c.L1D.Cache.Release()
	if c.MMU.Joint != nil {
		c.MMU.Joint.Release()
	}
	c.Dir.Release()
	c.L0BTB.Release()
	c.L1BTB.Release()
	if c.predec != nil {
		c.predec.release()
		c.predec = nil
	}
	if c.sblk != nil {
		c.sblk.release()
		c.sblk = nil
	}
	c.robQ.release(&freeUops)
	c.fq.release(&freeFqEntries)
	c.lq.release(&freeLqEntries)
	c.sq.release(&freeSqEntries)
	c.vecLog.release(&freeVecEffects)
	freeVecBytes.Put(&c.vecBytes)
	c.vecStores.release(&freeVecWrites)
	if c.Vec != nil {
		c.Vec.Release()
		c.specVec.Release()
		c.Vec, c.specVec = nil, nil
	}
	freeQueueSlots.Put(&c.queueBuf)
	c.pf.releaseStorage()
	c.queues, c.rat, c.archRAT = [numPipes][]int{}, nil, nil
	freeCkpts.Put(&c.ckpts)
}

// Reset re-points the core at a new entry PC with a given stack pointer. On
// a core that has stepped it first empties the pipeline, as a flush does but
// counting none, and zeroes the x and f registers, so the new program starts
// as it would on a fresh core. Its decode caches stay: an entry is used only
// while memory still holds the word it was decoded from, so a program loaded
// since cannot meet a stale one.
func (c *Core) Reset(pc, sp uint64) {
	if c.now > 0 {
		c.emptyPipeline(trace.SquashNone)
		for _, p := range c.archRAT {
			c.pf.write(p, 0, 0)
		}
	}
	c.fetchPC = pc
	c.pf.write(c.rat[isa.SP], sp, 0)
	c.pf.clobbered = true
	c.Halted = false
}

// Reg reads an architectural register through the retirement map (valid when
// the pipeline is drained).
func (c *Core) Reg(r isa.Reg) uint64 {
	return c.pf.read(c.archRAT[int(r)])
}

// TakeFcsrWrite reports whether fcsr was written since the last call
// (isa.CSRFile.TakeFcsrWrite).
func (c *Core) TakeFcsrWrite() bool { return c.priv.TakeFcsrWrite() }

// Now returns the current cycle.
func (c *Core) Now() uint64 { return c.now }

// AttachTracer connects the pipeline-event tracer (nil detaches). Attach
// before the first Step: the CPI stack's exact-partition property (buckets
// sum to Stats.Cycles) holds only over cycles the tracer observed.
func (c *Core) AttachTracer(t *trace.Tracer) { c.tr = t }

// Tracer returns the attached tracer, or nil.
func (c *Core) Tracer() *trace.Tracer { return c.tr }

// SetPrivilege places the core in the given privilege level (harness setup
// for runs under SV39 translation).
func (c *Core) SetPrivilege(p int) {
	c.priv.Level = p
	c.MMU.Priv = p
}

// CSR reads a CSR value (retire-time architectural state): the clocks, the
// hpm counters, the vector configuration and mip's source bits are the
// core's, the rest isa.Priv's.
func (c *Core) CSR(num uint16) uint64 {
	switch num {
	case isa.CSRCycle, isa.CSRMcycle, isa.CSRTime:
		return c.now
	case isa.CSRInstret, isa.CSRMinstret:
		return c.Stats.Retired
	case isa.CSRVl, isa.CSRVtype, isa.CSRVlenb:
		return c.Vec.CSR(num)
	case isa.CSRMip:
		v := c.priv.Read(num)
		if c.IntSource != nil {
			v |= c.IntSource(c.ID)
		}
		return v
	// §II performance monitors: the hpm counters expose the PMU events the
	// CDS profiling tool (§IX, Fig. 16) visualizes.
	case isa.CSRMhpmcounter3:
		return c.Stats.Branches
	case isa.CSRMhpmcounter4:
		return c.Stats.BrMispredicts
	case isa.CSRMhpmcounter5:
		return c.L1D.Cache.Stats.Misses
	case isa.CSRMhpmcounter6:
		return c.L1I.Cache.Stats.Misses
	case isa.CSRMhpmcounter7:
		return c.Stats.Loads
	case isa.CSRMhpmcounter8:
		return c.Stats.Stores
	case isa.CSRMhpmcounter9:
		return c.Stats.StoreForwards
	case isa.CSRMhpmcounter10:
		return c.Stats.Flushes
	case isa.CSRMhpmcounter11:
		return c.MMU.Stats.Walks
	case isa.CSRMhpmcounter12:
		return c.Stats.VecOps
	}
	return c.priv.Read(num)
}

// SetCSR writes a CSR (setup / retire-time execution) through isa.Priv's
// window; a satp write reaches the MMU too.
func (c *Core) SetCSR(num uint16, v uint64) {
	c.priv.Write(num, v)
	if num == isa.CSRSatp {
		c.MMU.Satp = v
	}
}

// Step advances the pipeline by one cycle. Stage order is retire → execute →
// dispatch → fetch so that same-cycle structural effects resolve oldest-first.
// Asynchronous interrupts are sampled at the cycle boundary, giving precise
// interrupt state (Fig. 8's recovery machinery handles the flush).
func (c *Core) Step() {
	if c.Halted {
		return
	}
	if c.IntSource != nil {
		c.sampleInterrupts()
	}
	if c.wfiWait {
		if c.tr != nil {
			c.tr.Cycle(c.cycleAttr(0))
		}
		c.Stats.WFIParkedCycles++
		c.now++
		c.Stats.Cycles = c.now
		return
	}
	var retiredBefore uint64
	if c.tr != nil {
		retiredBefore = c.Stats.Retired
	}
	c.retire()
	if c.Halted {
		return
	}
	c.issueAndExecute()
	c.renameDispatch()
	c.fetch()
	if c.tr != nil {
		cl, sub, pc := c.cycleAttr(c.Stats.Retired - retiredBefore)
		c.tr.Cycle(cl, sub, pc)
	}
	c.now++
	c.Stats.Cycles = c.now
}

// cycleAttr implements the top-down CPI-stack attribution rule (see
// DESIGN.md): exactly one bucket per counted cycle, evaluated on end-of-cycle
// state, plus the second-level refinement (frontend and backend-memory
// sub-buckets) and the per-PC owner for backend cycles. The halting cycle is
// not counted in Stats.Cycles and gets no bucket, so the partition stays
// exact.
func (c *Core) cycleAttr(retired uint64) (trace.CycleClass, trace.SubClass, uint64) {
	switch {
	case retired > 0:
		return trace.CycleRetiring, trace.SubNone, trace.NoPC
	case c.wfiWait:
		// a parked hart supplies nothing: frontend-bound by convention
		return trace.CycleFrontend, trace.SubFeOther, trace.NoPC
	}
	if c.robQ.empty() {
		if c.now < c.badSpecUntil {
			return trace.CycleBadSpec, trace.SubNone, trace.NoPC
		}
		return trace.CycleFrontend, c.frontendSub(), trace.NoPC
	}
	return headCycleAttr(c.robQ.front())
}

// frontendSub refines an empty-ROB frontend cycle by the starvation windows
// fetch recorded, highest-priority first: an in-flight I-cache miss beats an
// ITLB walk beats a redirect bubble; anything else (queue drain, jalr stalls,
// WFI parking) is frontend/other.
func (c *Core) frontendSub() trace.SubClass {
	switch {
	case c.now < c.feICacheUntil:
		return trace.SubFeICache
	case c.now < c.feITLBUntil:
		return trace.SubFeITLB
	case c.now < c.feRedirectUntil:
		return trace.SubFeRedirect
	}
	return trace.SubFeOther
}

// headCycleAttr attributes a backend (non-empty ROB, nothing retired) cycle:
// the class comes from the head's instruction class, the mem sub-bucket from
// the hierarchy level its cache access was served from, and the owning PC is
// the head's. Shared by the stepped path and fast-forward batching — the
// head, its memLevel and its pc are all constant across an inert window, so
// the two paths attribute identically.
func headCycleAttr(head *uop) (trace.CycleClass, trace.SubClass, uint64) {
	switch head.class {
	case isa.ClassLoad, isa.ClassStore, isa.ClassAMO, isa.ClassVLoad, isa.ClassVStore:
		return trace.CycleBackendMem, memSub(head.memLevel), head.pc
	}
	return trace.CycleBackendCore, trace.SubNone, head.pc
}

// memSub maps a coherence.Level* fill level onto its CPI sub-bucket.
func memSub(level uint8) trace.SubClass {
	switch level {
	case coherence.LevelL2:
		return trace.SubMemL2
	case coherence.LevelDRAM:
		return trace.SubMemDRAM
	}
	return trace.SubMemL1
}

// Run steps until halt or maxCycles, jumping over inert windows on the
// event-driven clock (fastforward.go). It has no device model to vouch for,
// so with an interrupt source or an MMIO window attached it steps every cycle.
func (c *Core) Run(maxCycles uint64) {
	target := c.now + maxCycles
	if target < c.now {
		target = ^uint64(0) // saturate: callers pass huge budgets
	}
	for !c.Halted && c.now < target {
		if c.IntSource == nil && c.MMIO == nil {
			if next := c.NextEvent(); next > c.now {
				c.AdvanceIdle(min(next, target))
				continue
			}
		}
		c.Step()
	}
}

// PrefetchL1 implements prefetch.Sink. Prefetches translate through resident
// TLB entries only; a TLB miss drops the request (hardware prefetchers do not
// trigger page walks — the §V-C TLB prefetcher keeps the entries warm).
func (c *Core) PrefetchL1(addr uint64, now uint64) {
	if pa, ok := c.MMU.TranslateNoWalk(addr); ok {
		c.L1D.Prefetch(pa, now)
	} else {
		c.Stats.PFDroppedTLB++
	}
}

// PrefetchL2 implements prefetch.Sink.
func (c *Core) PrefetchL2(addr uint64, now uint64) {
	if pa, ok := c.MMU.TranslateNoWalk(addr); ok {
		c.L2.Prefetch(pa, now)
	} else {
		c.Stats.PFDroppedTLB++
	}
}

// PrefetchTLB implements prefetch.Sink (§V-C cross-page prefetch).
func (c *Core) PrefetchTLB(va uint64) { c.MMU.Prefill(va) }
