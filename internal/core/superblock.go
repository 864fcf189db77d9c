package core

import "xt910/internal/recycle"

// superblock extends the per-instruction predecode cache to straight-line
// decoded runs, the way DBT emulators fuse basic blocks: one fetch-group walk
// in flat (untranslated) mode records the instructions it decoded, keyed by
// the physical address of the walk's first instruction, and a later walk
// entering at the same address replays the decoded run without touching the
// bit-level decoder. Replay feeds the exact same per-instruction
// branch-prediction switch as a cold walk, so fetch-queue contents, predictor
// state and every timing decision are byte-identical with the cache on or
// off — only the host-side Predecode*/Superblock* counters move.
//
// Like the single-instruction cache it has no architectural meaning and
// follows the same rule: an instruction is replayed only while memory still
// holds the word it was cracked from. Replay stops at the first word that
// changed, and the walk decodes and records the block again from there.
// Blocks are only built when translation is off (pa == pc for every
// instruction).
const (
	sbEntries = 1 << 10 // direct-mapped on the entry PA's 2-byte granule
	sbMask    = sbEntries - 1
	// sbMaxInsts bounds one block: a walk covers one fetch group, and a
	// 16-byte group holds at most eight RVC instructions.
	sbMaxInsts = 8
)

type sbBlock struct {
	tag   uint64 // entry pa|1; 0 = free (entry PAs are 2-byte aligned)
	n     uint8
	raw   [sbMaxInsts]uint32 // the word each instruction was cracked from
	insts [sbMaxInsts]sinst
}

// add records the next instruction of a walk, unless the block is full.
func (b *sbBlock) add(raw uint32, in *sinst) {
	if b.n < sbMaxInsts {
		b.raw[b.n], b.insts[b.n] = raw, *in
		b.n++
	}
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

// release hands the table, every tag free, to the next newSuperblockCache. It
// must not be used afterwards.
func (s *superblockCache) release() {
	for i := range s.blk {
		s.blk[i].tag = 0
	}
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
	d.tag, d.n = b.tag, b.n
	copy(d.raw[:b.n], b.raw[:b.n]) // replay never reads past n
	copy(d.insts[:b.n], b.insts[:b.n])
}
