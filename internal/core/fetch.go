package core

import (
	"xt910/internal/mmu"
	"xt910/isa"
)

// fetch models the IF/IP/IB stages (§III): one 128-bit fetch group per cycle
// from the L1 I-cache (or the loop buffer), multi-branch prediction within
// the group via the two-level-buffered direction predictor, L0/L1 BTBs, RAS
// and the indirect predictor. Predicted-taken redirects cost TakenPenalty
// bubbles unless served by the L0 BTB (zero-bubble, §III-B) or the LBUF.
func (c *Core) fetch() {
	if c.fetchWait || c.now < c.fetchAllowed || c.fq.len() >= c.Cfg.FetchQueue {
		return
	}
	pc := c.fetchPC
	fromLoop := c.Cfg.EnableLoopBuf && c.LoopBuf.Covers(pc)

	var groupReady uint64
	if fromLoop {
		// LBUF fetch: no I-cache access, available next cycle (§III-C).
		groupReady = c.now + 1
	} else {
		pa := pc
		if c.MMU.Enabled() {
			var err error
			var doneT uint64
			walks := c.MMU.Stats.Walks
			pa, doneT, err = c.MMU.Translate(pc, mmu.AccFetch, c.now)
			if err != nil {
				c.injectFetchFault(pc, err)
				return
			}
			if c.MMU.Stats.Walks > walks && doneT > c.feITLBUntil {
				c.feITLBUntil = doneT // ITLB miss: frontend starves on the walk
			}
			groupReady = doneT
		} else {
			groupReady = c.now
		}
		done, hit := c.L1I.Fetch(pa, groupReady)
		groupReady = done + uint64(c.Cfg.FrontendDelay)
		if !hit && groupReady > c.feICacheUntil {
			c.feICacheUntil = groupReady // I-cache miss: starved until the fill
		}
	}

	groupEnd := (pc | uint64(c.Cfg.FetchBytes-1)) + 1
	redirected := false

	// Superblock replay/build (superblock.go): only while translation is off,
	// so pa == pc for every instruction in the walk. A hit supplies pre-cracked
	// instructions to the walk below in place of decodeAt; everything else —
	// prediction, redirects, queue pressure, timing — runs identically.
	var sb *sbBlock
	sbPos := 0
	build := &c.sbBuild
	build.tag, build.n = 0, 0
	if c.sblk != nil && !c.MMU.Enabled() {
		if sb = c.sblk.lookup(pc); sb == nil {
			build.tag = pc | 1
		}
	}
	fetchLag := uint32(groupReady - c.now)
	for pc < groupEnd && c.fq.len() < c.Cfg.FetchQueue {
		_, e := c.fq.tail()
		if sb != nil && sbPos < int(sb.n) {
			e.sinst = sb.insts[sbPos]
			sbPos++
			c.Stats.SuperblockHits++
		} else {
			if !c.decodeAt(pc, &e.sinst) {
				// crosses a page we cannot translate yet: stop the group here
				break
			}
			if build.tag != 0 && build.n < sbMaxInsts {
				build.insts[build.n] = e.sinst
				build.n++
				build.endPA = pc + uint64(e.inst.Size)
			}
		}
		c.fq.commit()
		in := &e.inst
		e.pc, e.readyAt, e.fetchLag = pc, groupReady, fetchLag
		e.excCause, e.excTval = -1, 0
		e.predTaken, e.fromLoop = false, fromLoop
		nextPC := pc + uint64(in.Size)

		switch {
		case in.Op == isa.ILLEGAL:
			e.excCause = isa.ExcIllegalInst
			e.excTval = pc
			c.fetchWait = true // stop fetching until the trap redirects
			if c.sblk != nil {
				c.sblk.insert(build)
			}
			return
		case in.Op == isa.JAL:
			target := pc + uint64(in.Imm)
			if in.Rd == isa.RA {
				c.RAS.Push(nextPC)
			}
			e.predTaken = true
			e.br = brState{predTarget: target}
			c.redirectFetch(pc, target)
			redirected = true
		case in.Op == isa.JALR:
			e.predTaken = true
			e.br = brState{rasSnap: c.RAS.Snapshot(), histBefore: c.Dir.History()}
			isRet := in.Rd == isa.Zero && in.Rs1 == isa.RA && in.Imm == 0
			if isRet && c.RAS.Depth() > 0 {
				e.br.predTarget = c.RAS.Pop()
			} else if c.Cfg.EnableIndirect {
				if t, ok := c.Ind.Predict(pc, c.Dir.History()); ok {
					e.br.predTarget = t
				} else if ent, ok := c.L1BTB.Lookup(pc); ok {
					e.br.predTarget = ent.Target()
				}
			} else if ent, ok := c.L1BTB.Lookup(pc); ok {
				e.br.predTarget = ent.Target()
			}
			if in.Rd == isa.RA {
				c.RAS.Push(nextPC)
			}
			if e.br.predTarget != 0 {
				c.redirectFetch(pc, e.br.predTarget)
			} else {
				// no target prediction: fetch stalls until the jalr resolves
				c.fetchWait = true
				c.Stats.FetchJalrStalls++
			}
			redirected = true
		case e.class == isa.ClassBranch:
			e.br = brState{rasSnap: c.RAS.Snapshot(), histBefore: c.Dir.History()}
			taken, idx := c.Dir.Predict(pc)
			e.br.dirIdx = idx
			c.Dir.SpeculateHistory(taken)
			e.predTaken = taken
			if taken {
				e.br.predTarget = pc + uint64(in.Imm)
				c.redirectFetch(pc, e.br.predTarget)
				redirected = true
			}
		}
		if redirected {
			break
		}
		pc = nextPC
	}
	if c.sblk != nil {
		c.sblk.insert(build)
	}
	if !redirected {
		c.fetchPC = pc
		if c.fetchAllowed <= c.now {
			c.fetchAllowed = c.now + 1
		}
	}
}

// redirectFetch points fetch at a predicted target, charging the IP-stage
// bubble unless the L0 BTB (IF-stage jump) or the loop buffer hides it.
func (c *Core) redirectFetch(branchPC, target uint64) {
	c.fetchPC = target
	bubble := uint64(c.Cfg.TakenPenalty)
	if c.Cfg.EnableLoopBuf && c.LoopBuf.Covers(target) && c.LoopBuf.Covers(branchPC) {
		bubble = 0 // back edge inside the captured loop: zero bubble (§III-C)
		c.Stats.LoopBufRedirects++
	} else if c.Cfg.EnableL0BTB {
		if _, ok := c.L0BTB.Lookup(branchPC); ok {
			bubble = 0 // IF-stage jump (§III-B)
			c.Stats.L0BTBRedirects++
		}
	}
	c.fetchAllowed = c.now + 1 + bubble
	if bubble > 0 && c.fetchAllowed > c.feRedirectUntil {
		c.feRedirectUntil = c.fetchAllowed // redirect bubble window (CPI stack)
	}
}

// decodeAt decodes and cracks the instruction at pc into dst, reading
// through the MMU when translation is active; it reports false (dst
// unspecified) when a page the instruction touches cannot be translated.
// With the predecode cache enabled, a prior decode of the same physical
// address is reused without touching memory, the bit-level decoder or crack;
// the cache is kept coherent with committed stores and fence.i (see
// predecode.go).
func (c *Core) decodeAt(pc uint64, dst *sinst) bool {
	pa := pc
	if c.MMU.Enabled() {
		var err error
		pa, _, err = c.MMU.Translate(pc, mmu.AccFetch, c.now)
		if err != nil {
			return false
		}
	}
	if c.predec != nil {
		if s, ok := c.predec.lookup(pa); ok {
			c.Stats.PredecodeHits++
			*dst = s
			return true
		}
		c.Stats.PredecodeMisses++
	}
	lo := uint16(c.Mem.Read(pa, 2))
	if lo&3 != 3 {
		*dst = crack(isa.Decode16(lo))
		if c.predec != nil {
			c.predec.insert(pa, *dst)
		}
		return true
	}
	pa2 := pa + 2
	if c.MMU.Enabled() && (pc+2)&4095 == 0 {
		// the upper halfword lives on the next virtual page
		var err error
		pa2, _, err = c.MMU.Translate(pc+2, mmu.AccFetch, c.now)
		if err != nil {
			return false
		}
	}
	*dst = crack(isa.Decode(uint32(lo) | uint32(uint16(c.Mem.Read(pa2, 2)))<<16))
	if c.predec != nil && pa2 == pa+2 {
		// only physically-contiguous instructions are cacheable
		c.predec.insert(pa, *dst)
	}
	return true
}

// injectFetchFault enqueues a faulting pseudo-instruction so the instruction
// page fault is taken precisely at retirement.
func (c *Core) injectFetchFault(pc uint64, err error) {
	cause := isa.ExcInstPageFault
	if pf, ok := err.(*mmu.PageFault); ok {
		cause = pf.Cause()
	}
	_, e := c.fq.tail()
	c.fq.commit()
	e.sinst = crack(isa.NewInst(isa.ILLEGAL))
	e.pc, e.readyAt, e.fetchLag = pc, c.now+1, 1
	e.excCause, e.excTval = int16(cause), pc
	e.predTaken, e.fromLoop = false, false
	c.fetchWait = true
}
