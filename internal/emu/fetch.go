package emu

import (
	"encoding/binary"

	"xt910/internal/mem"
	"xt910/internal/mmu"
	"xt910/isa"
)

// kind is what Step dispatches on: an operation's class with the register
// files of its operands folded in, resolved once, when a memo slot is filled.
// The kinds from kindALU to kindALU3 read and write only the integer file,
// through the slot's rd/rs1/rs2 indices.
type kind uint8

const (
	kindEmpty    kind = iota // a slot never filled
	kindALU                  // isa.EvalIntALU
	kindBranch               // isa.EvalBranch
	kindJAL                  // pc-relative jump and link
	kindJALR                 // register-indirect jump and link
	kindLoad                 // integer destination, rs1+imm address
	kindStore                // data in rs2, rs1+imm address
	kindALU3                 // isa.EvalIntALU3: MACs and conditional moves read rd
	kindLoadAny              // every other load: FP destinations, indexed forms
	kindStoreAny             // every other store: FP data, indexed forms
	kindFPU                  // scalar floating point
	kindAMO                  // lr/sc/amo*
	kindCSR                  // Zicsr
	kindSys                  // ecall, ebreak, xret, fences, wfi
	kindVSet                 // vsetvl/vsetvli
	kindVector               // vector arithmetic, loads and stores
	kindCacheOp              // custom cache and TLB maintenance
	kindIllegal              // raises an illegal-instruction trap
)

// memoEntry is one decode-memo slot: a raw instruction word, what it decodes
// to and how Step executes that. kind is kindEmpty in a slot never filled.
type memoEntry struct {
	raw  uint32
	kind kind
	// size is a scalar memory op's access width and ext the shift that
	// sign-extends a kindLoad's value (0 for unsigned and full-width loads).
	size, ext uint8
	// rd, rs1 and rs2 index the integer file for the integer kinds: the
	// register itself, or x0 — which reads 0, as Reg answers for an absent
	// operand, and which Step re-zeroes after a write — for any other.
	rd, rs1, rs2 uint8
	inst         isa.Inst
}

// memoSize is enough for the hot loops of every kernel in the tree: their
// code is a few hundred bytes, and only first executions miss, at this size
// as at sixteen times it.
const memoSize = 256

// fill decodes raw into the slot.
func (e *memoEntry) fill(raw uint32) {
	in := &e.inst
	if e.raw = raw; raw&3 == 3 {
		*in = isa.Decode(raw)
	} else {
		*in = isa.Decode16(uint16(raw))
	}
	e.rd, e.rs1, e.rs2 = xIndex(in.Rd), xIndex(in.Rs1), xIndex(in.Rs2)
	e.kind = kindOf(in)
	e.size, e.ext = uint8(in.Op.MemBytes()), 0
	if e.kind == kindLoad && !in.Op.LoadUnsigned() {
		e.ext = 64 - 8*e.size
	}
}

func xIndex(r isa.Reg) uint8 {
	if r.IsX() {
		return uint8(r)
	}
	return 0
}

// kindOf resolves how Step executes in.
func kindOf(in *isa.Inst) kind {
	op := in.Op
	switch op.Class() {
	case isa.ClassALU, isa.ClassMul, isa.ClassDiv:
		// whether either evaluator knows op does not depend on the operands
		if _, ok := isa.EvalIntALU(op, 0, 0, 0, 0, 0); ok {
			return kindALU
		}
		if _, ok := isa.EvalIntALU3(op, 0, 0, 0); ok {
			return kindALU3
		}
	case isa.ClassBranch:
		return kindBranch
	case isa.ClassJump:
		if op == isa.JAL {
			return kindJAL
		}
		return kindJALR
	case isa.ClassLoad:
		if in.Rd.IsX() && !indexed(op) {
			return kindLoad
		}
		return kindLoadAny
	case isa.ClassStore:
		if in.Rs2.IsX() && !indexed(op) {
			return kindStore
		}
		return kindStoreAny
	case isa.ClassAMO:
		return kindAMO
	case isa.ClassFPU:
		return kindFPU
	case isa.ClassCSR:
		return kindCSR
	case isa.ClassSys:
		return kindSys
	case isa.ClassVSet:
		return kindVSet
	case isa.ClassVALU, isa.ClassVFPU, isa.ClassVLoad, isa.ClassVStore:
		return kindVector
	case isa.ClassCacheOp:
		return kindCacheOp
	}
	return kindIllegal
}

// indexed reports whether op is one of the custom indexed memory forms
// (§VIII-A), whose address is rs1 + rs2<<imm.
func indexed(op isa.Op) bool {
	switch op {
	case isa.XLRB, isa.XLRH, isa.XLRW, isa.XLRD, isa.XLURB, isa.XLURH, isa.XLURW,
		isa.XSRB, isa.XSRH, isa.XSRW, isa.XSRD:
		return true
	}
	return false
}

// Fetch decodes the instruction at va. The bytes are read from memory on
// every call; only their decoding is remembered, in a memo slot chosen by the
// physical address and trusted only while it holds exactly the word just
// read. Decoding is a pure function of that word, so whoever changed the
// bytes — this program, another hart, a loader, a restored checkpoint — the
// memo cannot answer with anything a fresh decode would not.
func (m *Machine) Fetch(va uint64) (isa.Inst, error) {
	e, err := m.fetch(va)
	if err != nil {
		return isa.Inst{}, err
	}
	return e.inst, nil
}

// fetch is Fetch for Step: the slot returned is the memo's own, good until
// the next fetch and not to be written to. While translation is off it reads
// the word from the held code page, which the memory hands out once and
// which stays its page until the memory's Generation moves; any other fetch —
// translated, from another page, straddling a page end, after a Release or
// RestoreSnapshot, or on a machine given another memory — takes fetchPage.
func (m *Machine) fetch(va uint64) (*memoEntry, error) {
	if off := va - m.codeBase; off <= mem.PageSize-4 && m.codeMem == m.Mem &&
		m.codeGen == m.Mem.Generation() && m.untranslated() {
		raw := binary.LittleEndian.Uint32(m.code[off : off+4])
		if raw&3 != 3 {
			raw &= 0xFFFF
		}
		if e := m.memoSlot(va); e.raw == raw && e.kind != kindEmpty {
			return e, nil
		}
		return m.decoded(va, raw), nil
	}
	return m.fetchPage(va)
}

// fetchPage translates va, reads the word through the memory and holds its
// page, when there is one, for the untranslated fetches after.
func (m *Machine) fetchPage(va uint64) (*memoEntry, error) {
	pa, err := m.translate(va, mmu.AccFetch)
	if err != nil {
		return nil, err
	}
	var raw uint32
	if off := pa & (mem.PageSize - 1); off <= mem.PageSize-4 {
		// a 32-bit instruction would end on this page: one read serves both forms
		if p := m.Mem.Page(pa); p != nil {
			raw = binary.LittleEndian.Uint32(p[off : off+4])
			m.code, m.codeBase, m.codeMem, m.codeGen = p, pa-off, m.Mem, m.Mem.Generation()
		}
		if raw&3 != 3 {
			raw &= 0xFFFF
		}
	} else if raw = uint32(m.Mem.Read(pa, 2)); raw&3 == 3 {
		// 32-bit: the upper half sits on the next (possibly different) page
		pa2, err := m.translate(va+2, mmu.AccFetch)
		if err != nil {
			return nil, err
		}
		raw |= uint32(m.Mem.Read(pa2, 2)) << 16
	}
	return m.decoded(pa, raw), nil
}

// decoded is the memo slot of the instruction at pa, refilled unless it holds
// raw already.
func (m *Machine) decoded(pa uint64, raw uint32) *memoEntry {
	e := m.memoSlot(pa)
	if e.raw != raw || e.kind == kindEmpty {
		e.fill(raw)
	}
	return e
}

// memoSlot is the memo slot of the instruction at pa.
func (m *Machine) memoSlot(pa uint64) *memoEntry { return &m.tab.memo[pa>>1&(memoSize-1)] }
