package coherence

import "xt910/internal/recycle"

// SnoopFilter tracks, per line, which L1 data caches may hold a copy. §VI:
// "A snoop filter that monitors access by the cores to the shared L2 cache
// effectively reduces the inter-core communications." Snoops are only sent to
// cores whose bit is set; all other snoops are counted as filtered.
type SnoopFilter struct {
	sharers map[uint64]uint32
}

// freeSnoopFilters recycles filters between L2s (DESIGN.md "Session storage
// recycling"): every filter on it is empty, its map cleared rather than
// dropped, so the next L2 starts without regrowing it.
var freeSnoopFilters recycle.Objects[SnoopFilter]

// NewSnoopFilter returns an empty filter.
func NewSnoopFilter() *SnoopFilter {
	if f := freeSnoopFilters.Get(); f != nil {
		return f
	}
	return &SnoopFilter{sharers: make(map[uint64]uint32)}
}

// release empties the filter and hands it to the L2s built after it.
func (f *SnoopFilter) release() {
	clear(f.sharers)
	freeSnoopFilters.Put(f)
}

// Sharers returns the bitmap of cores that may hold the line.
func (f *SnoopFilter) Sharers(addr uint64) uint32 { return f.sharers[addr] }

// Add marks core as a sharer.
func (f *SnoopFilter) Add(addr uint64, core int) {
	f.sharers[addr] |= 1 << uint(core)
}

// SetExclusive makes core the sole holder.
func (f *SnoopFilter) SetExclusive(addr uint64, core int) {
	f.sharers[addr] = 1 << uint(core)
}

// Remove clears core's bit, dropping the entry when nobody holds the line.
func (f *SnoopFilter) Remove(addr uint64, core int) {
	v := f.sharers[addr] &^ (1 << uint(core))
	if v == 0 {
		delete(f.sharers, addr)
	} else {
		f.sharers[addr] = v
	}
}

// Drop forgets the line entirely (inclusive L2 eviction).
func (f *SnoopFilter) Drop(addr uint64) { delete(f.sharers, addr) }

// Entries reports how many lines are being tracked.
func (f *SnoopFilter) Entries() int { return len(f.sharers) }
