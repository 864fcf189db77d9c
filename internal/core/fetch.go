package core

import (
	"xt910/internal/mem"
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
	// instructions to the walk below in place of decodeAt while memory still
	// holds their words; everything else — prediction, redirects, queue
	// pressure, timing — runs identically.
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
			raw, ok := c.code.Held(c.Mem, pc)
			if !ok {
				raw = c.code.Load(c.Mem, pc)
			}
			if raw != sb.raw[sbPos] {
				// the word changed since the block was built: keep the
				// prefix that still holds and record the rest anew
				*build = *sb
				build.n, sb = uint8(sbPos), nil
			}
		}
		if sb != nil && sbPos < int(sb.n) {
			e.sinst = sb.insts[sbPos]
			sbPos++
			c.Stats.SuperblockHits++
		} else {
			raw, ok := c.decodeAt(pc, &e.sinst)
			if !ok {
				// crosses a page we cannot translate yet: stop the group here
				break
			}
			if build.tag != 0 {
				build.add(raw, &e.sinst)
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

// decodeAt decodes and cracks the instruction at pc into dst and returns
// the word it was decoded from, reading through the MMU when translation is
// active; ok is false (dst unspecified) when a page the instruction touches
// cannot be translated. With the predecode cache enabled, an entry cracked
// from the word memory holds at the physical address now is reused without
// the bit-level decoder or crack (predecode.go).
func (c *Core) decodeAt(pc uint64, dst *sinst) (raw uint32, ok bool) {
	pa := pc
	if c.MMU.Enabled() {
		var err error
		pa, _, err = c.MMU.Translate(pc, mmu.AccFetch, c.now)
		if err != nil {
			return 0, false
		}
	}
	if raw, ok = c.code.Held(c.Mem, pa); !ok {
		raw = c.code.Load(c.Mem, pa)
	}
	if c.predec != nil {
		if s := c.predec.lookup(pa, raw); s != nil {
			c.Stats.PredecodeHits++
			*dst = *s
			return raw, true
		}
		c.Stats.PredecodeMisses++
	}
	cacheable := true
	if raw&3 == 3 && c.MMU.Enabled() && (pc+2)&(mem.PageSize-1) == 0 {
		// the upper halfword lives on the next virtual page
		pa2, _, err := c.MMU.Translate(pc+2, mmu.AccFetch, c.now)
		if err != nil {
			return 0, false
		}
		// only physically-contiguous instructions are cacheable
		if cacheable = pa2 == pa+2; !cacheable {
			raw = raw&0xFFFF | uint32(c.Mem.Read(pa2, 2))<<16
		}
	}
	*dst = crackWord(raw)
	if c.predec != nil && cacheable {
		c.predec.insert(pa, raw, dst)
	}
	return raw, true
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
