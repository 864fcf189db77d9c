package core

import "xt910/isa"

// sinst is the pre-cracked static record of one instruction: the decoded
// isa.Inst plus every fact rename, issue, the LSU and retire would otherwise
// re-derive from the opcode per dynamic instance. crack computes it once,
// where the bit-level decoder runs; the predecode and superblock caches store
// it and fetch → IBUF → ROB carry it by value (a µop must not point into a
// cache entry that a conflicting fill or a committed store can rewrite while
// the µop is in flight).
type sinst struct {
	inst  isa.Inst
	class isa.Class
	flags uint8
	// src are the scalar source registers in Sources() order and nsrc their
	// count; vector operands are left out (the vector scoreboard tracks them).
	nsrc     uint8
	src      [3]isa.Reg
	memBytes uint8
	latency  uint8
}

// Static facts packed into sinst.flags.
const (
	sfWritesReg   uint8 = 1 << iota // produces a scalar (x/f) register result
	sfLoad                          // scalar load: owns an LQ entry
	sfStore                         // scalar store: owns an SQ entry and two issue legs
	sfCtrl                          // branch or jump: resolves on the BJU pipe
	sfVector                        // runs on the ordered vector queue
	sfCustom                        // XT-910 custom encoding: illegal when the extension is off
	sfBlocksLoads                   // vector store or atomic: memory effect outside the SQ
)

func crack(in isa.Inst) sinst {
	s := sinst{
		inst:     in,
		class:    in.Op.Class(),
		memBytes: uint8(in.Op.MemBytes()),
		latency:  uint8(in.Op.Latency()),
	}
	regs, n := in.Sources()
	for _, r := range regs[:n] {
		if !r.IsV() {
			s.src[s.nsrc] = r
			s.nsrc++
		}
	}
	if in.WritesReg() && !in.Rd.IsV() {
		s.flags |= sfWritesReg
	}
	if isCustomOp(in.Op) {
		s.flags |= sfCustom
	}
	switch s.class {
	case isa.ClassLoad:
		s.flags |= sfLoad
	case isa.ClassStore:
		s.flags |= sfStore
	case isa.ClassBranch, isa.ClassJump:
		s.flags |= sfCtrl
	case isa.ClassVSet, isa.ClassVALU, isa.ClassVFPU, isa.ClassVLoad:
		s.flags |= sfVector
	case isa.ClassVStore:
		s.flags |= sfVector | sfBlocksLoads
	case isa.ClassAMO:
		s.flags |= sfBlocksLoads
	}
	return s
}

func isCustomOp(op isa.Op) bool {
	return op >= isa.XLRB && op <= isa.XTLBIVA
}

func (s *sinst) isLoad() bool    { return s.flags&sfLoad != 0 }
func (s *sinst) isStore() bool   { return s.flags&sfStore != 0 }
func (s *sinst) isCtrl() bool    { return s.flags&sfCtrl != 0 }
func (s *sinst) writesReg() bool { return s.flags&sfWritesReg != 0 }
func (s *sinst) memSize() int    { return int(s.memBytes) }
