// Package coherence implements the XT-910 multi-core memory fabric (§VI):
// the shared, inclusive L2 cache with its MOSEI coherence protocol, the snoop
// filter that limits inter-core traffic, the intra-cluster bus, and the
// Ncore-style interconnect joining up to four clusters. The cluster bus
// timing is fixed (the constants beside NewL2); only the L2 hit latency is
// set per L2, defaulting to StockHitLatency.
package coherence

import (
	"xt910/internal/cache"
	"xt910/internal/mem"
)

// Stats counts fabric events.
type Stats struct {
	Requests       uint64
	L2Hits         uint64
	L2Misses       uint64
	SnoopsSent     uint64 // snoops actually delivered to an L1
	SnoopsFiltered uint64 // snoops suppressed by the snoop filter
	Invalidations  uint64 // L1 lines invalidated by coherence
	Downgrades     uint64 // M/E → O/S transitions from remote reads
	BackInvals     uint64 // inclusive-eviction back-invalidations
	DirtyTransfers uint64 // cache-to-cache supplies of dirty data
	Writebacks     uint64 // L2 → DRAM writebacks
	CrossCluster   uint64 // requests escalated to the Ncore interconnect
}

// L2 is one cluster's shared inclusive L2 cache plus its local bus.
type L2 struct {
	Cache *cache.Cache
	DRAM  *mem.DRAM

	// HitLatency is the L2 array access time.
	HitLatency int

	l1s      []*cache.Cache
	snoop    *SnoopFilter
	nextFree uint64
	ncore    *Ncore
	id       int
	Stats    Stats

	// OwnerHook, when set, observes every line-ownership transition on the
	// cluster bus (see OwnerEvent). The SMP cosimulator's store-order oracle
	// attaches here; nil costs nothing.
	OwnerHook func(OwnerEvent)
}

// L2 timing: the cluster bus's is the same on every L2; the array access time
// is the cache config's HitLatency, StockHitLatency when it sets none.
const (
	busLatency      = 4  // L1→L2 request latency
	transferLatency = 12 // cache-to-cache supply of a dirty line
	gapCycles       = 2  // port bandwidth: minimum spacing between requests
	StockHitLatency = 10
)

// NewL2 builds a cluster L2 with XT-910-like latencies.
func NewL2(cfg cache.Config, dram *mem.DRAM) *L2 {
	if cfg.HitLatency == 0 {
		cfg.HitLatency = StockHitLatency
	}
	return &L2{
		Cache:      cache.New(cfg),
		DRAM:       dram,
		HitLatency: cfg.HitLatency,
		snoop:      NewSnoopFilter(),
	}
}

// Release hands the L2's line array and snoop filter to the L2s built after
// it, each back in its constructor's state (DESIGN.md "Session storage
// recycling"). The L2 must not be used afterwards.
func (l2 *L2) Release() {
	l2.Cache.Release()
	l2.snoop.release()
	l2.snoop = nil
}

// RegisterL1 attaches a core's L1 data cache to the cluster bus and returns
// its port number.
func (l2 *L2) RegisterL1(c *cache.Cache) int {
	l2.l1s = append(l2.l1s, c)
	return len(l2.l1s) - 1
}

// port arbitration: returns the cycle the request starts service.
func (l2 *L2) arbitrate(now uint64) uint64 {
	start := now + busLatency
	if l2.nextFree > start {
		start = l2.nextFree
	}
	l2.nextFree = start + gapCycles
	return start
}

// FetchLine services an L1 miss from core `who` for the line containing addr.
// excl requests write permission. It returns the data-ready cycle and the
// MOSEI state the requesting L1 must install.
func (l2 *L2) FetchLine(who int, addr uint64, excl bool, now uint64) (done uint64, st cache.State) {
	addr = l2.Cache.LineAddr(addr)
	l2.Stats.Requests++
	t := l2.arbitrate(now)

	// Snoop the other L1s, guided by the snoop filter.
	sharers := l2.snoop.Sharers(addr)
	dirtySupply := false
	remaining := 0
	for i := range l2.l1s {
		if i == who {
			continue
		}
		if sharers&(1<<uint(i)) == 0 {
			l2.Stats.SnoopsFiltered++
			continue
		}
		l2.Stats.SnoopsSent++
		line := l2.l1s[i].Lookup(addr)
		if line == nil || line.State == cache.Invalid {
			l2.dropSharer(addr, i)
			continue
		}
		if excl {
			if line.State == cache.Modified || line.State == cache.Owned || line.Dirty {
				dirtySupply = true
			}
			l2.l1s[i].Invalidate(addr)
			l2.dropSharer(addr, i)
			l2.Stats.Invalidations++
		} else {
			switch line.State {
			case cache.Modified:
				line.State = cache.Owned
				dirtySupply = true
				l2.Stats.Downgrades++
				l2.fireOwner(addr, i, OwnDowngrade)
			case cache.Exclusive:
				line.State = cache.Shared
				l2.Stats.Downgrades++
				l2.fireOwner(addr, i, OwnDowngrade)
			}
			remaining++
		}
	}

	// L2 array lookup.
	l2line := l2.Cache.Lookup(addr)
	l2.Cache.Stats.Accesses++
	if l2line != nil {
		l2.Cache.Touch(l2line)
		l2.Stats.L2Hits++
		done = t + uint64(l2.HitLatency)
		if l2line.ReadyAt > done {
			done = l2line.ReadyAt // in-flight prefetch fill
		}
		if dirtySupply {
			done += transferLatency
			l2.Stats.DirtyTransfers++
		}
	} else {
		l2.Cache.Stats.Misses++
		l2.Stats.L2Misses++
		fillReady := l2.fetchFromBeyond(addr, excl, t)
		l2.installL2(addr, fillReady, t, false)
		done = fillReady
	}

	if excl {
		if l := l2.Cache.Lookup(addr); l != nil {
			l.Dirty = true // the owner will write back through us eventually
		}
		l2.snoop.SetExclusive(addr, who)
		l2.fireOwner(addr, who, OwnExcl)
		return done, cache.Modified
	}
	l2.snoop.Add(addr, who)
	if remaining > 0 {
		l2.fireOwner(addr, who, OwnShared)
		return done, cache.Shared
	}
	// Sole holder: Exclusive install, silently promotable to Modified by a
	// store — so the oracle must treat it as write ownership.
	l2.fireOwner(addr, who, OwnExcl)
	return done, cache.Exclusive
}

// fetchFromBeyond brings a line into the cluster from the Ncore interconnect
// (other clusters) or DRAM.
func (l2 *L2) fetchFromBeyond(addr uint64, excl bool, now uint64) uint64 {
	if l2.ncore != nil {
		l2.Stats.CrossCluster++
		return l2.ncore.Fetch(l2.id, addr, excl, now)
	}
	return l2.DRAM.Access(now)
}

// installL2 fills the L2 array, maintaining inclusion: evicting a line
// back-invalidates every L1 copy via the snoop filter.
func (l2 *L2) installL2(addr uint64, readyAt, now uint64, prefetched bool) {
	evicted, had, wb := l2.Cache.Fill(addr, cache.Exclusive, readyAt, prefetched)
	if wb {
		// victim writeback: bandwidth charged near the request time (the
		// write buffer hides its latency and must not block the channel
		// until the fill completes)
		l2.DRAM.Access(now)
		l2.Stats.Writebacks++
	}
	if had {
		for i, l1 := range l2.l1s {
			if l2.snoop.Sharers(evicted)&(1<<uint(i)) != 0 {
				l1.Invalidate(evicted)
				l2.Stats.BackInvals++
				l2.fireOwner(evicted, i, OwnRelease)
			}
		}
		l2.snoop.Drop(evicted)
	}
}

// Upgrade grants write permission for a line core `who` already holds in a
// shared state, invalidating the other copies.
func (l2 *L2) Upgrade(who int, addr uint64, now uint64) uint64 {
	addr = l2.Cache.LineAddr(addr)
	t := l2.arbitrate(now)
	for i := range l2.l1s {
		if i == who || l2.snoop.Sharers(addr)&(1<<uint(i)) == 0 {
			continue
		}
		l2.Stats.SnoopsSent++
		l2.l1s[i].Invalidate(addr)
		l2.dropSharer(addr, i)
		l2.Stats.Invalidations++
	}
	if l := l2.Cache.Lookup(addr); l != nil {
		l.Dirty = true
	}
	l2.snoop.SetExclusive(addr, who)
	l2.fireOwner(addr, who, OwnExcl)
	return t + 2
}

// Writeback accepts a dirty line evicted from an L1.
func (l2 *L2) Writeback(who int, addr uint64, now uint64) {
	addr = l2.Cache.LineAddr(addr)
	l2.arbitrate(now)
	l2.dropSharer(addr, who)
	if l := l2.Cache.Lookup(addr); l != nil {
		l.Dirty = true
		return
	}
	// Inclusion means this should not happen, but tolerate it: forward to DRAM.
	l2.DRAM.Access(now)
	l2.Stats.Writebacks++
}

// FetchInst services an L1 instruction-cache miss. Instruction lines are
// read-only and are not tracked by the snoop filter.
func (l2 *L2) FetchInst(addr uint64, now uint64) uint64 {
	addr = l2.Cache.LineAddr(addr)
	l2.Stats.Requests++
	t := l2.arbitrate(now)
	l2.Cache.Stats.Accesses++
	if l := l2.Cache.Lookup(addr); l != nil {
		l2.Cache.Touch(l)
		l2.Stats.L2Hits++
		done := t + uint64(l2.HitLatency)
		if l.ReadyAt > done {
			done = l.ReadyAt
		}
		return done
	}
	l2.Cache.Stats.Misses++
	l2.Stats.L2Misses++
	ready := l2.fetchFromBeyond(addr, false, t)
	l2.installL2(addr, ready, t, false)
	return ready
}

// ReadWord is the timed PTE/word read used by the page-table walker: it goes
// through the L2 (walks hit cached page tables) and returns the data cycle.
func (l2 *L2) ReadWord(pa uint64, now uint64) uint64 {
	return l2.FetchInst(pa, now) // same read-only path and timing as I-fetch
}

// Prefetch installs a line into the L2 without a demand requester (§V-C L2
// destination prefetch). It charges DRAM occupancy but stalls nobody.
func (l2 *L2) Prefetch(addr uint64, now uint64) {
	addr = l2.Cache.LineAddr(addr)
	if l2.Cache.Lookup(addr) != nil {
		return
	}
	t := l2.arbitrate(now)
	ready := l2.fetchFromBeyond(addr, false, t)
	l2.installL2(addr, ready, t, true)
}

// CheckInclusion verifies the inclusive-hierarchy invariant: every valid L1
// line is present in the L2. It returns the number of violations (0 when the
// invariant holds); property tests call it after random workloads.
func (l2 *L2) CheckInclusion() int {
	violations := 0
	for _, l1 := range l2.l1s {
		l1.ForEachValid(func(addr uint64) {
			if l2.Cache.Lookup(addr) == nil {
				violations++
			}
		})
	}
	return violations
}
