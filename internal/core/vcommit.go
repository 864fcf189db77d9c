package core

import (
	"xt910/internal/recycle"
	"xt910/internal/vector"
	"xt910/isa"
)

// vecEffect is what one executed vector µop produced on the speculative unit
// (specVec), held in vecLog until the µop's pop applies it to the committed
// one, Core.Vec. flushAll drops the log and copies Core.Vec over specVec, as
// it copies archRAT over rat. The vector queue issues in program order and
// branch recovery never reaches an executed vector µop (olderQuiesced), so
// vecLog is a FIFO in ROB order.
type vecEffect struct {
	seq    uint64
	vl     uint64
	vtype  isa.VType
	rd     uint8  // the destination group, nregs registers from rd on; its
	nregs  uint8  // bytes after the µop ran are the slot's groupBytes
	writes uint16 // a vector store's element writes: the next of vecStores
}

// vecWrite is one translated element write of an executed vector store.
type vecWrite struct {
	pa, val uint64
	size    uint8
}

// maxGroupBytes bounds a destination group: LMUL 8, doubled by a widening op,
// of VLEN-bit registers.
const maxGroupBytes = 16 * vector.VLEN / 8

var (
	freeVecEffects recycle.Slices[vecEffect]
	freeVecBytes   recycle.Slices[byte]
	freeVecWrites  recycle.Slices[vecWrite]
)

// groupBytes is the room vecLog slot s has in vecBytes.
func (c *Core) groupBytes(s int) []byte {
	return c.vecBytes[s*maxGroupBytes : (s+1)*maxGroupBytes]
}

// logVector records what vector µop u just did to specVec: vl and vtype, the
// nregs registers from rd on, the vecStores entries from firstWrite on.
func (c *Core) logVector(u *uop, rd, nregs, firstWrite int) {
	s := c.vecLog.push(vecEffect{
		seq: u.seq, vl: c.specVec.VL, vtype: c.specVec.VType,
		rd: uint8(rd), nregs: uint8(nregs), writes: uint16(c.vecStores.len() - firstWrite),
	})
	copy(c.groupBytes(s), c.specVec.File.Group(rd, nregs))
	u.effectPending = true
}

// commitVector applies the oldest vecLog record — u's — to the committed unit
// and memory. It runs at u's pop, and before the trap of a µop that faulted
// on an element: the elements that did not fault land, as the golden model's do.
func (c *Core) commitVector(u *uop) {
	e := c.vecLog.front()
	switch {
	case u.class == isa.ClassVSet:
		if e.vl != c.Vec.VL {
			c.Stats.VlSpecFails++ // a retired vsetvl that changed vl broke its prediction (§VII)
		}
	case u.excCause < 0:
		c.Stats.VecOps++
	}
	c.Vec.VL, c.Vec.VType = e.vl, e.vtype
	copy(c.Vec.File.Group(int(e.rd), int(e.nregs)), c.groupBytes(c.vecLog.head))
	for i := 0; i < int(e.writes); i++ {
		w := c.vecStores.front()
		c.commitWrite(w.pa, int(w.size), w.val)
		c.vecStores.popFront()
	}
	c.vecLog.popFront()
}
