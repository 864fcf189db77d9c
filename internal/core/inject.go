package core

// Transient-fault hooks for the internal/inject campaign runner. Each flips
// one bit of live microarchitectural or architectural state mid-run, modelling
// a particle strike; none of them touch timing bookkeeping (readyAt, LRU,
// fill state), so the only observable effect is the corrupted value itself.
// The checker in internal/cosim is then responsible for catching whatever
// propagates to architectural state.

// InjectArchRegBit flips one bit of the physical register currently backing
// architectural register reg (0–31 integer, 32–63 FP) in the retirement map.
// Faults on x0 are refused: its reads are hardwired to zero, so a flip there
// could never propagate and would dilute the campaign.
func (c *Core) InjectArchRegBit(reg int, bit uint) bool {
	reg &= 63
	if reg == 0 {
		return false
	}
	p := c.archRAT[reg]
	c.pf.val[p] ^= 1 << (bit & 63)
	c.pf.clobbered = true
	return true
}

// InjectRenameBit flips one bit of the speculative rename-map entry for reg,
// wrapped into the physical register file's range so the fault stays a
// mis-mapping rather than an out-of-bounds index.
func (c *Core) InjectRenameBit(reg int, bit uint) bool {
	reg &= 63
	if reg == 0 {
		return false
	}
	v := int(c.rat[reg]) ^ (1 << (bit % 10))
	c.rat[reg] = int16(v % len(c.pf.val))
	return true
}

// InjectROBAgeBit flips one low-order bit of the n-th live ROB entry's age
// (sequence number), corrupting the ordering tag recovery and memory
// disambiguation depend on. Returns false when the ROB is empty.
func (c *Core) InjectROBAgeBit(n int, bit uint) bool {
	if c.robQ.empty() {
		return false
	}
	if n %= c.robQ.len(); n < 0 {
		n += c.robQ.len()
	}
	c.robQ.at(n).seq ^= 1 << (bit % 8)
	return true
}

// InjectMemBit flips one bit of a raw memory byte, bypassing the store path
// and every coherence hook — the honest silent-corruption channel: if the
// program never rereads the byte and the checker's written-line sweep never
// covers it, nothing will notice.
func (c *Core) InjectMemBit(addr uint64, bit uint) {
	c.Mem.StoreByte(addr, c.Mem.LoadByte(addr)^(1<<(bit&7)))
}

// InjectCacheLineBit flips one bit inside the n-th valid L1D line (the caches
// are tag-and-timing models, so the payload lives in backing memory). It
// returns the faulted byte's address, or ok=false when the L1D holds no valid
// lines.
func (c *Core) InjectCacheLineBit(n int, bit uint) (addr uint64, ok bool) {
	var lines []uint64
	c.L1D.Cache.ForEachValid(func(la uint64) {
		lines = append(lines, la)
	})
	if len(lines) == 0 {
		return 0, false
	}
	line := lines[n%len(lines)]
	off := uint64(bit/8) % uint64(c.L1D.Cache.LineBytes())
	addr = line + off
	c.Mem.StoreByte(addr, c.Mem.LoadByte(addr)^(1<<(bit&7)))
	return addr, true
}
