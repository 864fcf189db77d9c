package soc

import "math/bits"

// CLINT is the core-local interruptor (§II: "standard CLint and PLIC
// multi-core interrupt controllers, timers"): the memory-mapped mtime /
// mtimecmp / msip registers at their conventional addresses, driving the
// machine timer and software (IPI) interrupts.
type CLINT struct {
	Base  uint64
	harts int

	mtime    uint64
	mtimecmp [maxHarts]uint64
	msip     [maxHarts]uint32

	// Divider slows mtime relative to the CPU clock (default 1: one tick
	// per cycle, keeping tests crisp). 0 freezes mtime: it never ticks, so
	// a run that reads it is deterministic whatever its timing.
	Divider uint64
	phase   uint64
}

// Conventional CLINT register offsets.
const (
	clintMSIPOff     = 0x0000
	clintMTimeCmpOff = 0x4000
	clintMTimeOff    = 0xBFF8
	clintSize        = 0xC000
)

// NewCLINT builds a CLINT for up to maxHarts harts at the conventional base.
func NewCLINT(harts int) *CLINT {
	c := &CLINT{Base: 0x02000000, harts: harts, Divider: 1}
	for i := range harts {
		c.mtimecmp[i] = ^uint64(0) // timer disarmed at reset
	}
	return c
}

// Covers reports whether pa falls inside the CLINT's register window.
func (c *CLINT) Covers(pa uint64) bool {
	return pa >= c.Base && pa < c.Base+clintSize
}

// Advance passes n CPU cycles.
func (c *CLINT) Advance(n uint64) {
	if c.Divider == 1 {
		c.mtime += n // the common case, without a division
	} else if c.Divider > 1 {
		c.phase += n
		c.mtime += c.phase / c.Divider
		c.phase %= c.Divider
	}
}

// NextEdge returns how many more CPU cycles pass before mtime reaches a
// hart's mtimecmp that it is below now, the one change to MTIP no register
// write makes; ^0 when none will come (frozen, reached or disarmed).
func (c *CLINT) NextEdge() uint64 {
	next := ^uint64(0)
	for _, cmp := range c.mtimecmp[:c.harts] {
		// in ticks; none overflows, none comes with mtime frozen (lo == 0)
		if hi, lo := bits.Mul64(cmp-c.mtime, c.Divider); cmp > c.mtime && hi == 0 && lo > 0 {
			next = min(next, lo-c.phase)
		}
	}
	return next
}

// MTime returns the current timer value.
func (c *CLINT) MTime() uint64 { return c.mtime }

// TimerPending reports MTIP for a hart.
func (c *CLINT) TimerPending(hart int) bool {
	return hart < c.harts && c.mtime >= c.mtimecmp[hart]
}

// SoftPending reports MSIP for a hart.
func (c *CLINT) SoftPending(hart int) bool {
	return hart < c.harts && c.msip[hart]&1 != 0
}

// Read services a load from the register window.
func (c *CLINT) Read(pa uint64, size int) uint64 {
	off := pa - c.Base
	switch {
	case off >= clintMTimeOff && off < clintMTimeOff+8:
		return extractField(c.mtime, pa, size)
	case off >= clintMTimeCmpOff && off < clintMTimeCmpOff+uint64(8*c.harts):
		hart := int((off - clintMTimeCmpOff) / 8)
		return extractField(c.mtimecmp[hart], pa, size)
	case off < uint64(4*c.harts):
		return uint64(c.msip[off/4]) >> (8 * (pa & 3)) & mask(size)
	}
	return 0
}

// Write services a store to the register window.
func (c *CLINT) Write(pa uint64, size int, v uint64) {
	off := pa - c.Base
	switch {
	case off >= clintMTimeOff && off < clintMTimeOff+8:
		c.mtime = insertField(c.mtime, pa, size, v)
	case off >= clintMTimeCmpOff && off < clintMTimeCmpOff+uint64(8*c.harts):
		hart := int((off - clintMTimeCmpOff) / 8)
		c.mtimecmp[hart] = insertField(c.mtimecmp[hart], pa, size, v)
	case off < uint64(4*c.harts):
		hart := off / 4
		sh := 8 * (pa & 3)
		cur := uint64(c.msip[hart])
		c.msip[hart] = uint32(insertBits(cur, sh, size, v)) & 1
	}
}

func mask(size int) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*size) - 1
}

// extractField reads `size` bytes out of a naturally-aligned 64-bit register.
func extractField(reg, pa uint64, size int) uint64 {
	sh := 8 * (pa & 7)
	return reg >> sh & mask(size)
}

func insertField(reg, pa uint64, size int, v uint64) uint64 {
	sh := 8 * (pa & 7)
	return insertBits(reg, sh, size, v)
}

func insertBits(reg, sh uint64, size int, v uint64) uint64 {
	m := mask(size) << sh
	return reg&^m | v<<sh&m
}

// PLIC is a minimal platform-level interrupt controller: per-source pending
// bits, per-hart enables, and claim/complete. External devices (or tests)
// raise lines with Raise.
type PLIC struct {
	Base    uint64
	harts   int
	pending uint64
	enable  [maxHarts]uint64
	claimed uint64
}

// PLIC register offsets (simplified single-priority layout).
const (
	plicPendingOff = 0x1000
	plicEnableOff  = 0x2000 // + 8*hart
	plicClaimOff   = 0x200004
	plicSize       = 0x400000
)

// Covers reports whether pa falls inside the PLIC window.
func (p *PLIC) Covers(pa uint64) bool {
	return pa >= p.Base && pa < p.Base+plicSize
}

// Raise marks external interrupt source line (1–63) pending.
func (p *PLIC) Raise(line int) {
	p.pending |= 1 << uint(line)
}

// ExtPending reports MEIP for a hart: any enabled, unclaimed source pending.
func (p *PLIC) ExtPending(hart int) bool {
	return hart < p.harts && p.pending&p.enable[hart]&^p.claimed != 0
}

// Read services loads (pending word, enables, claim).
func (p *PLIC) Read(pa uint64, size int) uint64 {
	off := pa - p.Base
	switch {
	case off == plicPendingOff:
		return p.pending & mask(size)
	case off >= plicEnableOff && off < plicEnableOff+uint64(8*p.harts):
		return p.enable[(off-plicEnableOff)/8] & mask(size)
	case off == plicClaimOff:
		// claim: highest pending enabled source (hart 0 semantics kept
		// simple: the claim register is shared in this lite model)
		avail := p.pending &^ p.claimed
		for line := 63; line >= 1; line-- {
			if avail&(1<<uint(line)) != 0 {
				p.claimed |= 1 << uint(line)
				return uint64(line)
			}
		}
		return 0
	}
	return 0
}

// Write services stores (enables, complete).
func (p *PLIC) Write(pa uint64, size int, v uint64) {
	off := pa - p.Base
	switch {
	case off >= plicEnableOff && off < plicEnableOff+uint64(8*p.harts):
		p.enable[(off-plicEnableOff)/8] = v
	case off == plicClaimOff:
		// complete: clear pending + claimed for the source
		line := v & 63
		p.pending &^= 1 << line
		p.claimed &^= 1 << line
	}
}
