// Package cache implements the set-associative cache timing models used for
// the XT-910's L1 instruction cache, L1 data cache and shared L2 (§II, §V).
//
// The caches are tag-and-timing models: instruction and data bytes live in
// the shared physical memory (internal/mem), while the caches track presence,
// coherence state, dirtiness and fill timing. This is the standard
// timing-directed/functionally-backed simulator split; it preserves every
// behaviour the paper evaluates (hit/miss ratios, prefetch overlap, coherence
// traffic) without duplicating data storage.
package cache

import "xt910/internal/recycle"

// State is a MOSEI coherence state. Plain (non-coherent) caches only use
// Invalid and Exclusive.
type State uint8

// MOSEI states (§VI: "The L2 cache supports MOSEI coherence protocol").
const (
	Invalid State = iota
	Shared
	Exclusive
	Owned
	Modified
)

func (s State) String() string {
	return [...]string{"I", "S", "E", "O", "M"}[s]
}

// Line is one cache line's bookkeeping.
type Line struct {
	Valid      bool
	Dirty      bool
	Tag        uint64
	State      State
	LRU        uint64
	ReadyAt    uint64 // fill completion cycle (in-flight fills merge here)
	Prefetched bool   // filled by the prefetcher and not yet demanded
	parity     uint8
}

// Config sizes a cache.
type Config struct {
	SizeBytes  int
	Ways       int
	LineBytes  int
	HitLatency int  // cycles from access to data for a resident line
	ECC        bool // L2 supports ECC (§II)
	Parity     bool // parity check support (§II)
	// MSHRs bounds the number of concurrent outstanding demand misses the
	// cache's miss-status holding registers can track (0 = default of 8).
	// Prefetch fills use their own queue and are not bounded by it.
	MSHRs int
}

// Stats collects the counters the benchmark harness reports.
type Stats struct {
	Accesses       uint64
	Misses         uint64
	Writebacks     uint64
	PrefetchFills  uint64
	PrefetchUseful uint64 // prefetched lines later hit by demand accesses
	PrefetchWasted uint64 // prefetched lines evicted unused
	ParityErrors   uint64
	ECCCorrected   uint64
	Invalidations  uint64 // lines removed by coherence or back-invalidation
}

// Cache is a set-associative write-back cache timing model.
type Cache struct {
	cfg      Config
	sets     int
	lineBits uint
	lines    []Line // sets × ways
	tick     uint64
	Stats    Stats

	// filled logs the set of every line Victim handed out to be written —
	// once per fill, duplicates and all — so that Release can clear the sets
	// a short run touched instead of the whole array. nFilled counts the
	// fills; past len(filled) the log has overflowed and Release clears
	// everything. The hit path never comes here.
	filled  [fillLogSize]uint32
	nFilled int
}

// fillLogSize covers the fills of a fuzz-sized run (40 to 60 in the L2 on
// average, about 150 at most); a kernel overflows it in its first microseconds
// and pays one clear of the array at release, which it does not notice.
const fillLogSize = 256

// freeLines recycles line arrays between caches (see Release).
var freeLines recycle.Slices[Line]

// New builds a cache; size, ways and line size must be powers of two.
func New(cfg Config) *Cache {
	sets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	if sets < 1 {
		sets = 1
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineBytes {
		lineBits++
	}
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		lineBits: lineBits,
		lines:    freeLines.Get(sets * cfg.Ways),
	}
}

// Release hands the line array to the next New of the same geometry, every
// line zero again. The cache must not be used afterwards.
func (c *Cache) Release() {
	if c.nFilled <= len(c.filled) {
		for _, idx := range c.filled[:c.nFilled] {
			clear(c.setAt(uint64(idx)))
		}
	} else {
		clear(c.lines)
	}
	freeLines.PutZeroed(&c.lines)
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// LineAddr masks addr down to its line base.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineBits << c.lineBits }

func (c *Cache) setIndex(addr uint64) uint64 { return (addr >> c.lineBits) % uint64(c.sets) }

// setAt returns the ways of set idx.
func (c *Cache) setAt(idx uint64) []Line {
	return c.lines[idx*uint64(c.cfg.Ways) : (idx+1)*uint64(c.cfg.Ways)]
}

func (c *Cache) set(addr uint64) []Line { return c.setAt(c.setIndex(addr)) }

// Lookup finds the line holding addr without touching LRU state.
func (c *Cache) Lookup(addr uint64) *Line {
	tag := addr >> c.lineBits
	set := c.set(addr)
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			return &set[i]
		}
	}
	return nil
}

// Touch marks a line most-recently-used and accounts a demand hit on a
// prefetched line.
func (c *Cache) Touch(l *Line) {
	c.tick++
	l.LRU = c.tick
	if l.Prefetched {
		l.Prefetched = false
		c.Stats.PrefetchUseful++
	}
}

// Victim selects (and does not yet evict) the LRU way of addr's set. The way
// may be invalid, so this is the one place a caller obtains a line no earlier
// fill wrote, and the place the fill log is kept.
func (c *Cache) Victim(addr uint64) *Line {
	idx := c.setIndex(addr)
	if c.nFilled < len(c.filled) {
		c.filled[c.nFilled] = uint32(idx)
	}
	c.nFilled++
	set := c.setAt(idx)
	victim := &set[0]
	for i := range set {
		if !set[i].Valid {
			return &set[i]
		}
		if set[i].LRU < victim.LRU {
			victim = &set[i]
		}
	}
	return victim
}

// Fill installs addr's line with the given state, returning the evicted
// line's address (hadVictim reports whether one existed) and whether a dirty
// writeback is needed.
func (c *Cache) Fill(addr uint64, st State, readyAt uint64, prefetched bool) (evicted uint64, hadVictim, writeback bool) {
	l := c.Victim(addr)
	if l.Valid {
		evicted = l.Tag << c.lineBits
		hadVictim = true
		writeback = l.Dirty || l.State == Modified || l.State == Owned
		if writeback {
			c.Stats.Writebacks++
		}
		if l.Prefetched {
			c.Stats.PrefetchWasted++
		}
	}
	c.tick++
	*l = Line{
		Valid:      true,
		Tag:        addr >> c.lineBits,
		State:      st,
		LRU:        c.tick,
		ReadyAt:    readyAt,
		Prefetched: prefetched,
	}
	if c.cfg.Parity {
		l.parity = parityOf(l.Tag)
	}
	if prefetched {
		c.Stats.PrefetchFills++
	}
	return evicted, hadVictim, writeback
}

// Invalidate drops addr's line if present, reporting whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (wasDirty bool) {
	if l := c.Lookup(addr); l != nil {
		wasDirty = l.Dirty || l.State == Modified || l.State == Owned
		l.Valid = false
		l.State = Invalid
		c.Stats.Invalidations++
	}
	return wasDirty
}

// InvalidateAll flushes every line (icache.iall / dcache.iall custom ops).
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		if c.lines[i].Valid {
			c.lines[i].Valid = false
			c.lines[i].State = Invalid
			c.Stats.Invalidations++
		}
	}
}

// CleanAll clears dirty bits, charging one writeback per dirty line
// (dcache.call custom op).
func (c *Cache) CleanAll() (writebacks int) {
	for i := range c.lines {
		l := &c.lines[i]
		if l.Valid && (l.Dirty || l.State == Modified || l.State == Owned) {
			l.Dirty = false
			if l.State == Modified {
				l.State = Exclusive
			} else if l.State == Owned {
				l.State = Shared
			}
			c.Stats.Writebacks++
			writebacks++
		}
	}
	return writebacks
}

// VerifyParity checks the stored parity of addr's line. A mismatch models a
// detected soft error; with ECC configured it is corrected in place.
func (c *Cache) VerifyParity(addr uint64) bool {
	l := c.Lookup(addr)
	if l == nil || !c.cfg.Parity {
		return true
	}
	if l.parity == parityOf(l.Tag) {
		return true
	}
	if c.cfg.ECC {
		l.parity = parityOf(l.Tag)
		c.Stats.ECCCorrected++
		return true
	}
	c.Stats.ParityErrors++
	return false
}

// InjectParityError flips the stored parity of addr's line (test hook
// modelling a radiation upset).
func (c *Cache) InjectParityError(addr uint64) bool {
	l := c.Lookup(addr)
	if l == nil {
		return false
	}
	l.parity ^= 1
	return true
}

func parityOf(tag uint64) uint8 {
	v := tag
	v ^= v >> 32
	v ^= v >> 16
	v ^= v >> 8
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return uint8(v & 1)
}

// ForEachValid calls fn with the base address of every valid line.
func (c *Cache) ForEachValid(fn func(addr uint64)) {
	for i := range c.lines {
		if c.lines[i].Valid {
			fn(c.lines[i].Tag << c.lineBits)
		}
	}
}

// MissRate returns misses/accesses (0 when idle).
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}
