package core

import "xt910/internal/recycle"

// superblock extends the per-instruction predecode cache to straight-line
// decoded runs, the way DBT emulators fuse basic blocks: one fetch-group walk
// in flat (untranslated) mode records the instructions it decoded, keyed by
// the physical address of the walk's first instruction, and a later walk
// entering at the same address replays the decoded run without touching the
// bit-level decoder or memory at all. Replay feeds the exact same per-
// instruction branch-prediction switch as a cold walk, so fetch-queue
// contents, predictor state and every timing decision are byte-identical with
// the cache on or off — only the host-side Predecode*/Superblock* counters
// move.
//
// Like the single-instruction cache it is a host optimization with no
// architectural meaning, so it must never serve stale bytes: committed stores
// (local or cross-hart, via InvalidatePredecode) drop every block whose span
// *contains* the written range — not merely blocks starting there — and
// fence.i / icache.iall flush it entirely. Blocks are only built when
// translation is off (pa == pc for every instruction), so satp changes and
// virtual aliasing cannot bypass the PA-keyed invalidation.
const (
	sbEntries = 1 << 10 // direct-mapped on the entry PA's 2-byte granule
	sbMask    = sbEntries - 1
	// sbMaxInsts bounds one block: a walk covers one fetch group, and a
	// 16-byte group holds at most eight RVC instructions.
	sbMaxInsts = 8
	// sbMaxSpan bounds a block's byte span: the group's 16 bytes plus a
	// 4-byte tail instruction straddling the group boundary.
	sbMaxSpan = 18
)

type sbBlock struct {
	tag   uint64 // entry pa|1; 0 = free (entry PAs are 2-byte aligned)
	endPA uint64 // one past the last byte of the last cached instruction
	n     uint8
	insts [sbMaxInsts]sinst
}

type superblockCache struct {
	blk [sbEntries]sbBlock
}

// freeSuperblocks recycles whole tables between cores: every tag on a
// recycled one is free (release), and nothing else of a block is read under a
// free tag, so it is as good as a new one.
var freeSuperblocks recycle.Objects[superblockCache]

func newSuperblockCache() *superblockCache {
	if s := freeSuperblocks.Get(); s != nil {
		return s
	}
	return &superblockCache{}
}

// release hands the table to the next newSuperblockCache. It must not be used
// afterwards.
func (s *superblockCache) release() {
	s.flush()
	freeSuperblocks.Put(s)
}

func sbIdx(pa uint64) uint64 { return (pa >> 1) & sbMask }

// lookup returns the block entered at pa, or nil.
func (s *superblockCache) lookup(pa uint64) *sbBlock {
	b := &s.blk[sbIdx(pa)]
	if b.tag == pa|1 {
		return b
	}
	return nil
}

// insert stores a completed walk. Any cached prefix of the true instruction
// stream at the entry PA is sound — replay falls back to the decoder when the
// block is exhausted mid-group — so partial walks (fetch queue filled) are
// cacheable too.
func (s *superblockCache) insert(b *sbBlock) {
	if b.n == 0 || b.tag&1 == 0 {
		return
	}
	d := &s.blk[sbIdx(b.tag&^1)]
	d.tag, d.endPA, d.n = b.tag, b.endPA, b.n
	copy(d.insts[:b.n], b.insts[:b.n]) // replay never reads past n
}

// invalidate drops every block whose instruction bytes overlap [pa, pa+size).
// Candidate entry PAs lie within sbMaxSpan-2 bytes below the write (a block
// starting further down cannot reach it), scanned count-based so the walk is
// immune to uint64 wrap at either end of the address space, exactly like
// predecode.invalidate.
func (s *superblockCache) invalidate(pa uint64, size int) {
	if size <= 0 {
		return
	}
	start := (pa &^ 1) - (sbMaxSpan - 2) // wraps intentionally
	n := (pa - start + uint64(size) + 1) / 2
	for k := uint64(0); k < n; k++ {
		g := start + 2*k
		b := &s.blk[sbIdx(g)]
		if b.tag != g|1 {
			continue
		}
		// overlap iff the block starts inside the write, or the write's first
		// byte lands before the block's end (all distances mod 2^64)
		if g-pa < uint64(size) || pa-g < b.endPA-g {
			b.tag = 0
		}
	}
}

func (s *superblockCache) flush() {
	for i := range s.blk {
		s.blk[i].tag = 0
	}
}
