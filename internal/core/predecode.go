package core

import "xt910/internal/recycle"

// predecode is a direct-mapped cache of decoded, pre-cracked instructions
// keyed by physical address: raw fetch word → sinst (static.go), so
// steady-state fetch skips the bit-level decoder and the derivation of the
// per-opcode static facts on every cycle. It is a host-simulation
// optimization with no architectural or timing meaning of its own — the real
// XT-910 has no such structure. An entry serves a fetch only while memory
// still holds the word it was cracked from: crack(isa.Decode(raw)) depends on
// nothing else, so whoever changed the bytes — a store of any hart, a loader,
// a fault injector — the cache cannot answer with anything a fresh decode
// would not, and nothing has to invalidate it.
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
	// first halfword lives at pa, cracked from raw[i]; 0 is free (pa is
	// always 2-byte aligned, so bit 0 doubles as the valid bit).
	tag  [predecodeEntries]uint64
	raw  [predecodeEntries]uint32
	inst [predecodeEntries]sinst
}

// freePredecodes recycles whole tables between cores: every tag on a recycled
// one is free (release), and nothing else is read under a free tag, so it is
// as good as a new one.
var freePredecodes recycle.Objects[predecode]

func newPredecode() *predecode {
	if p := freePredecodes.Get(); p != nil {
		return p
	}
	return &predecode{}
}

// release hands the table, every tag free, to the next newPredecode. It must
// not be used afterwards.
func (p *predecode) release() {
	clear(p.tag[:])
	freePredecodes.Put(p)
}

func predecodeIdx(pa uint64) uint64 { return (pa >> 1) & predecodeMask }

// lookup returns the entry for the instruction at pa when it was cracked from
// raw, the word memory holds there now, or nil.
func (p *predecode) lookup(pa uint64, raw uint32) *sinst {
	i := predecodeIdx(pa)
	if p.tag[i] == pa|1 && p.raw[i] == raw {
		return &p.inst[i]
	}
	return nil
}

func (p *predecode) insert(pa uint64, raw uint32, in *sinst) {
	if pa&1 != 0 {
		return // misaligned fetch: not cacheable
	}
	i := predecodeIdx(pa)
	p.tag[i], p.raw[i], p.inst[i] = pa|1, raw, *in
}
