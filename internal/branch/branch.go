// Package branch implements the XT-910 hybrid branch prediction machinery
// (§III): the global-history direction predictor with its two-level prefetch
// buffers (BUF1/BUF2), the cascaded L0/L1 branch target buffers, the return
// address stack, the indirect-branch predictor, and the 16-entry loop buffer.
package branch

import (
	"slices"

	"xt910/internal/recycle"
)

// Stats counts predictor events for the harness.
type Stats struct {
	DirLookups   uint64
	DirMispred   uint64
	BufBypass    uint64 // back-to-back predictions served from BUF1/BUF2
	LoopBufHits  uint64
	LoopBufFills uint64
}

// DirectionPredictor is the §III-A design: prediction counters stored in
// SRAM banks whose one-cycle read latency is hidden by prefetching candidate
// counters into a two-level buffer (BUF1 for the branch in the current cycle,
// BUF2 for the branch in the next cycle). The functional content is a
// gshare-style global-history table; the buffers model the "conditional
// branch instructions at two adjacent cycles" bypass.
type DirectionPredictor struct {
	table   []uint8 // 2-bit saturating counters in the SRAM banks
	history uint64
	bits    uint

	// buf1/buf2 hold prefetched counter values; valid when the tags match.
	buf1, buf2 bufEntry

	Stats Stats
}

type bufEntry struct {
	valid bool
	index uint64
	ctr   uint8
}

// NewDirectionPredictor builds a predictor with 2^bits counters (the XT-910's
// high-density SRAM banks; the model defaults to 14 bits = 16K counters).
// Counters initialize to weakly-not-taken (1).
func NewDirectionPredictor(bits uint) *DirectionPredictor {
	p := &DirectionPredictor{table: freeCounters.Get(1 << bits), bits: bits}
	for i := range p.table {
		p.table[i] = 1
	}
	return p
}

// freeCounters and freeBTBEntries recycle predictor tables (see Release).
var (
	freeCounters   recycle.Slices[uint8]
	freeBTBEntries recycle.Slices[BTBEntry]
)

// Release hands the counter table to the next NewDirectionPredictor of the
// same size, zeroed like a fresh one (the constructor sets the initial
// counters either way). The predictor must not be used afterwards.
func (p *DirectionPredictor) Release() { freeCounters.Put(&p.table) }

// historyBits is the effective global-history length folded into the index.
// A short history keeps loop-closing branches' warm-up fast while still
// separating correlated patterns.
const historyBits = 8

func (p *DirectionPredictor) index(pc uint64) uint64 {
	return (pc>>1 ^ (p.history&(1<<historyBits-1))<<(p.bits-historyBits)) & (1<<p.bits - 1)
}

// Predict returns the predicted direction for the branch at pc along with the
// counter index used (the core carries the index to Update so training uses
// the same history the prediction saw). The two-level buffer is consulted
// first, modelling the SRAM-latency bypass that lets two adjacent-cycle
// branches (or two branches in one 128-bit fetch line) both predict without a
// bubble (§III-A, Fig. 6).
func (p *DirectionPredictor) Predict(pc uint64) (taken bool, idx uint64) {
	p.Stats.DirLookups++
	idx = p.index(pc)
	ctr := p.table[idx]
	if p.buf1.valid && p.buf1.index == idx {
		ctr = p.buf1.ctr
		p.Stats.BufBypass++
	} else if p.buf2.valid && p.buf2.index == idx {
		ctr = p.buf2.ctr
		p.Stats.BufBypass++
		// BUF2 moves up to BUF1 for the branch in the next cycle
		p.buf1 = p.buf2
	}
	// prefetch the likely next counters into the buffers (fuzzy match: the
	// next sequential fetch line's index under the speculated history)
	p.buf2 = bufEntry{valid: true, index: p.index(pc + 16), ctr: p.table[p.index(pc+16)]}
	return ctr >= 2, idx
}

// SpeculateHistory shifts the predicted outcome into the speculative global
// history (consumed by subsequent Predict calls in the shadow of the branch).
func (p *DirectionPredictor) SpeculateHistory(taken bool) {
	p.history = p.history<<1 | b2u(taken)
}

// Update trains the counter at idx (captured by Predict) with the resolved
// outcome and records mispredictions.
func (p *DirectionPredictor) Update(idx uint64, taken, predicted bool) {
	ctr := p.table[idx]
	if taken && ctr < 3 {
		ctr++
	}
	if !taken && ctr > 0 {
		ctr--
	}
	p.table[idx] = ctr
	if taken != predicted {
		p.Stats.DirMispred++
	}
}

// RestoreHistory rewinds the speculative history after a flush; the caller
// passes the checkpointed value.
func (p *DirectionPredictor) RestoreHistory(h uint64) { p.history = h }

// History exposes the current speculative history for checkpointing.
func (p *DirectionPredictor) History() uint64 { return p.history }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BTBEntry is one target-buffer entry.
type BTBEntry struct {
	valid  bool
	tag    uint64
	target uint64
	lru    uint64
}

// BTB is a set-associative branch target buffer. The L0 BTB (16-entry fully
// associative) redirects at IF with zero bubbles; the L1 BTB (>1K entries,
// set-associative) redirects at IP and is verified at IB (§III-B).
type BTB struct {
	entries []BTBEntry
	sets    int
	ways    int
	tick    uint64
}

// NewBTB builds a BTB. sets=1 yields a fully-associative buffer (the L0).
func NewBTB(entries, ways int) *BTB {
	sets := entries / ways
	if sets < 1 {
		sets = 1
	}
	return &BTB{entries: freeBTBEntries.Get(sets * ways), sets: sets, ways: ways}
}

// Release hands the entry array to the next NewBTB of the same size, every
// entry zero again. The BTB must not be used afterwards.
func (b *BTB) Release() { freeBTBEntries.Put(&b.entries) }

func (b *BTB) set(pc uint64) []BTBEntry {
	idx := (pc >> 1) % uint64(b.sets)
	return b.entries[idx*uint64(b.ways) : (idx+1)*uint64(b.ways)]
}

// Lookup returns the predicted target for the control-flow instruction at pc.
func (b *BTB) Lookup(pc uint64) (*BTBEntry, bool) {
	set := b.set(pc)
	for i := range set {
		if set[i].valid && set[i].tag == pc {
			b.tick++
			set[i].lru = b.tick
			return &set[i], true
		}
	}
	return nil, false
}

// Insert installs or updates the target for pc.
func (b *BTB) Insert(pc, target uint64) {
	set := b.set(pc)
	victim := &set[0]
	for i := range set {
		if set[i].valid && set[i].tag == pc {
			victim = &set[i]
			break
		}
		if !set[i].valid {
			victim = &set[i]
			break
		}
		if set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	b.tick++
	*victim = BTBEntry{valid: true, tag: pc, target: target, lru: b.tick}
}

// Target returns the stored target.
func (e *BTBEntry) Target() uint64 { return e.target }

// RAS is the return-address stack used for subroutine return prediction.
type RAS struct {
	stack []uint64
	max   int

	// snap is the image Snapshot last handed out; it stays current until the
	// next Push or Pop, so the branches fetched in between share it.
	snap    RASSnapshot
	current bool

	// images interns snapshot images by content. A loop revisits the same few
	// call stacks, so once each is interned taking a snapshot copies nothing;
	// a colliding image simply takes the slot over (holders keep the old one).
	images [rasImageSlots][]uint64
}

const rasImageSlots = 256 // a power of two: the slot is the hash's top 8 bits

// RASSnapshot is an immutable image of the stack, taken at fetch for every
// branch and restored when that branch mispredicts. The zero value is the
// empty stack.
type RASSnapshot struct{ stack []uint64 }

// NewRAS builds a stack with the given depth (XT-910 model default: 16).
func NewRAS(depth int) *RAS { return &RAS{max: depth} }

// Push records a call's return address.
func (r *RAS) Push(addr uint64) {
	if len(r.stack) == r.max {
		copy(r.stack, r.stack[1:])
		r.stack = r.stack[:r.max-1]
	}
	r.stack = append(r.stack, addr)
	r.current = false
}

// Pop predicts a return target (0 when empty).
func (r *RAS) Pop() uint64 {
	if len(r.stack) == 0 {
		return 0
	}
	v := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	r.current = false
	return v
}

// Depth reports the current stack depth.
func (r *RAS) Depth() int { return len(r.stack) }

// Snapshot/Restore support checkpoint recovery after flushes.
func (r *RAS) Snapshot() RASSnapshot {
	if !r.current {
		r.snap = RASSnapshot{r.image()}
		r.current = true
	}
	return r.snap
}

// image returns the interned copy of the current stack contents.
func (r *RAS) image() []uint64 {
	h := uint64(len(r.stack))
	for _, v := range r.stack {
		h = (h ^ v) * 0x9E3779B97F4A7C15
	}
	slot := &r.images[h>>56]
	if !slices.Equal(*slot, r.stack) {
		*slot = slices.Clone(r.stack)
	}
	return *slot
}

// Restore rewinds to a snapshot.
func (r *RAS) Restore(s RASSnapshot) {
	r.stack = append(r.stack[:0], s.stack...)
	r.snap, r.current = s, true
}

// IndirectPredictor predicts indirect-jump targets with a small
// history-hashed target cache (§III-B: "the IFU also has an indirect branch
// predictor for indirect branch instructions").
type IndirectPredictor struct {
	targets map[uint64]uint64
	bits    uint
}

// NewIndirectPredictor builds a predictor with 2^bits entries.
func NewIndirectPredictor(bits uint) *IndirectPredictor {
	return &IndirectPredictor{targets: make(map[uint64]uint64), bits: bits}
}

func (p *IndirectPredictor) key(pc, hist uint64) uint64 {
	return (pc ^ hist<<3) & (1<<p.bits - 1)
}

// Predict returns the predicted target (ok=false when untrained).
func (p *IndirectPredictor) Predict(pc, hist uint64) (uint64, bool) {
	t, ok := p.targets[p.key(pc, hist)]
	return t, ok
}

// Update trains the predictor with the resolved target.
func (p *IndirectPredictor) Update(pc, hist, target uint64) {
	p.targets[p.key(pc, hist)] = target
}
