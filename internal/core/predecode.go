package core

import "xt910/internal/recycle"

// predecode is a direct-mapped cache of decoded, pre-cracked instructions
// keyed by physical address: raw fetch bytes → sinst (static.go), so
// steady-state fetch skips the bit-level decoder (and the second halfword
// read of 4-byte encodings) and the derivation of the per-opcode static facts
// on every cycle. It is a host-simulation optimization with no architectural
// or timing meaning of its own — the real XT-910 has no such structure — so
// correctness demands it never serve stale bytes: entries covering a
// committed store (this hart's or, via the coherence fabric, any other
// hart's) are dropped immediately, and fence.i / icache.iall flush it
// entirely, mirroring what they do to the L1I.
//
// Keying by physical address makes the cache immune to virtual aliasing and
// satp changes; an instruction whose two halfwords are not physically
// contiguous (a page-crossing fetch) is simply never cached.
const (
	predecodeEntries = 1 << 12 // 2-byte granules, direct-mapped
	predecodeMask    = predecodeEntries - 1
)

type predecode struct {
	// tag[i] holds pa|1 for a valid entry describing the instruction whose
	// first halfword lives at pa; 0 is free (pa is always 2-byte aligned,
	// so bit 0 doubles as the valid bit).
	tag  [predecodeEntries]uint64
	inst [predecodeEntries]sinst
}

// freePredecodes recycles whole tables between cores: every tag on a recycled
// one is free (release), and inst is never read under a free tag, so it is as
// good as a new one.
var freePredecodes recycle.Objects[predecode]

func newPredecode() *predecode {
	if p := freePredecodes.Get(); p != nil {
		return p
	}
	return &predecode{}
}

// release hands the table to the next newPredecode. It must not be used
// afterwards.
func (p *predecode) release() {
	p.flush()
	freePredecodes.Put(p)
}

func predecodeIdx(pa uint64) uint64 { return (pa >> 1) & predecodeMask }

func (p *predecode) lookup(pa uint64) (sinst, bool) {
	i := predecodeIdx(pa)
	if p.tag[i] == pa|1 {
		return p.inst[i], true
	}
	return sinst{}, false
}

func (p *predecode) insert(pa uint64, in sinst) {
	if pa&1 != 0 {
		return // misaligned fetch: not cacheable
	}
	i := predecodeIdx(pa)
	p.tag[i] = pa | 1
	p.inst[i] = in
}

// invalidate drops every entry whose instruction bytes overlap [pa, pa+size).
// An entry starting at t covers at most t..t+3, so the scan starts two bytes
// below the write. The scan is count-based so it is immune to uint64 wrap:
// near the top of the address space pa+size overflows to 0, which used to
// terminate an address-compared loop before it ran and leave stale entries
// live across a committed store. Granule addresses themselves wrap mod 2^64,
// matching how insert keys them.
func (p *predecode) invalidate(pa uint64, size int) {
	if size <= 0 {
		return
	}
	start := (pa &^ 1) - 2 // wraps intentionally: an entry at ^uint64(0)-1 spans address 0
	n := (pa - start + uint64(size) + 1) / 2
	for k := uint64(0); k < n; k++ {
		g := start + 2*k
		i := predecodeIdx(g)
		if p.tag[i] == g|1 {
			p.tag[i] = 0
		}
	}
}

func (p *predecode) flush() {
	clear(p.tag[:])
}
