package cosim

import (
	"fmt"

	"xt910/internal/coherence"
	"xt910/internal/core"
	"xt910/internal/mem"
	"xt910/isa"
)

// storeOracle is the multi-hart store-order checker: it maintains a shadow
// ownership map purely from the coherence fabric's OwnerEvent stream and, at
// every store-class retirement, verifies the committing hart holds write
// ownership of every line the access spans. Architectural register compare
// cannot see a dropped invalidation — in this model cache state is timing
// metadata over one shared memory, so both worlds still read identical values
// — which is exactly the class of coherence bug this oracle exists to catch.
//
// The invariant it checks ("a store retires only while its hart owns the
// line") is made true by construction for a healthy fabric: a committing
// store whose line was lost between execute and retire re-acquires ownership
// at the pop (core's ensureOwned) — and the fabric reports that acquisition
// as an OwnExcl event — before the oracle looks. Any violation therefore
// means the fabric granted, lost or failed to revoke ownership without
// saying so.
//
// Besides the per-commit check, the ownership transitions themselves are
// cross-validated: an exclusive grant while another hart still holds the line,
// or a shared grant while the line is exclusively owned, is latched and
// reported at the next commit. A bounded global commit log (stores and
// ownership transitions interleaved in retirement order) accompanies every
// report.
type storeOracle struct {
	mmio interface{ Covers(pa uint64) bool }

	exclOwner map[uint64]int    // line -> hart holding it in a writable state
	holders   map[uint64]uint32 // line -> bitmask of harts holding any copy

	log  [orderLogSize]orderEntry // ring: global commit log window
	logN int

	pending string // transition violation latched until the next commit
}

const orderLogSize = 48

// orderEntry is one global-commit-log record: either a store-class retirement
// or a coherence ownership transition, in the order they happened.
type orderEntry struct {
	event bool // true: ownership transition, false: store-class commit
	hart  int
	line  uint64

	kind coherence.OwnerKind // transitions only

	commit uint64 // commits only: global commit index
	pc     uint64
	inst   isa.Inst
	addr   uint64
}

// newStoreOracle attaches the oracle to the shared L2's ownership-event
// stream. mmio, when non-nil, identifies device addresses whose stores bypass
// the cache hierarchy and are exempt from the ownership check.
func newStoreOracle(l2 *coherence.L2, mmio interface{ Covers(pa uint64) bool }) *storeOracle {
	o := &storeOracle{
		mmio:      mmio,
		exclOwner: make(map[uint64]int),
		holders:   make(map[uint64]uint32),
	}
	l2.OwnerHook = o.onOwner
	return o
}

func (o *storeOracle) push(e orderEntry) {
	o.log[o.logN%orderLogSize] = e
	o.logN++
}

// onOwner ingests one fabric transition, cross-validating it against the
// shadow map before applying it. Violations are latched (first one wins) and
// surface at the next commit so they carry a commit index and trace.
func (o *storeOracle) onOwner(ev coherence.OwnerEvent) {
	o.push(orderEntry{event: true, hart: ev.Port, line: ev.Line, kind: ev.Kind})
	bit := uint32(1) << uint(ev.Port)
	switch ev.Kind {
	case coherence.OwnExcl:
		if others := o.holders[ev.Line] &^ bit; others != 0 && o.pending == "" {
			o.pending = fmt.Sprintf("exclusive grant of line %#x to hart %d while harts %s were never invalidated",
				ev.Line, ev.Port, hartList(others))
		}
		o.exclOwner[ev.Line] = ev.Port
		o.holders[ev.Line] = bit
	case coherence.OwnShared:
		if ow, ok := o.exclOwner[ev.Line]; ok && ow != ev.Port && o.pending == "" {
			o.pending = fmt.Sprintf("shared grant of line %#x to hart %d while hart %d still owns it exclusively",
				ev.Line, ev.Port, ow)
		}
		delete(o.exclOwner, ev.Line)
		o.holders[ev.Line] |= bit
	case coherence.OwnDowngrade:
		if ow, ok := o.exclOwner[ev.Line]; ok && ow == ev.Port {
			delete(o.exclOwner, ev.Line)
		}
		o.holders[ev.Line] |= bit
	case coherence.OwnRelease:
		if o.holders[ev.Line] &^= bit; o.holders[ev.Line] == 0 {
			delete(o.holders, ev.Line)
		}
		if ow, ok := o.exclOwner[ev.Line]; ok && ow == ev.Port {
			delete(o.exclOwner, ev.Line)
		}
	}
}

// commit checks one retirement. Non-nil return is the divergence detail for a
// kind="order" failure. global is the session-wide commit index (all harts).
func (o *storeOracle) commit(hart int, global uint64, ci *core.Commit) []string {
	flush := func() []string {
		if o.pending == "" {
			return nil
		}
		msg := o.pending
		o.pending = ""
		return append([]string{msg}, o.renderLog()...)
	}
	cls := ci.Inst.Op.Class()
	if (cls != isa.ClassStore && cls != isa.ClassAMO) || !ci.HasAddr {
		return flush()
	}
	if o.mmio != nil && o.mmio.Covers(ci.Addr) {
		return flush() // device stores bypass the cache hierarchy
	}
	o.push(orderEntry{hart: hart, line: ci.Addr &^ (mem.LineSize - 1), commit: global, pc: ci.PC, inst: ci.Inst, addr: ci.Addr})
	if d := flush(); d != nil {
		return d
	}
	// LR is architecturally a read: it is logged for the reservation context
	// it gives the trace, but losing the line to another hart between the LR
	// and its commit is legal (the reservation dies, a later SC fails). A
	// failed SC (rd != 0) wrote nothing; it is logged but exempt. An SC whose
	// outcome is invisible (rd = x0) is exempt too.
	if op := ci.Inst.Op; op == isa.LRW || op == isa.LRD {
		return nil
	}
	if isSC(ci.Inst.Op) && (!ci.HasRd || ci.RdVal != 0) {
		return nil
	}
	size := ci.Inst.Op.MemBytes()
	if size <= 0 {
		size = 1
	}
	for line := ci.Addr &^ (mem.LineSize - 1); line <= (ci.Addr+uint64(size)-1)&^(mem.LineSize-1); line += mem.LineSize {
		if ow, ok := o.exclOwner[line]; !ok || ow != hart {
			owner := "nobody"
			if ok {
				owner = fmt.Sprintf("hart %d", ow)
			}
			msg := fmt.Sprintf("hart %d retires %s pa=%#x without owning line %#x (owner: %s, holders: %s)",
				hart, ci.Inst.String(), ci.Addr, line, owner, hartList(o.holders[line]))
			return append([]string{msg}, o.renderLog()...)
		}
	}
	return nil
}

func isSC(op isa.Op) bool {
	return op == isa.SCW || op == isa.SCD
}

// hartList renders a holder bitmask as "{0,2}".
func hartList(mask uint32) string {
	if mask == 0 {
		return "{}"
	}
	s := "{"
	for h := 0; mask != 0; h, mask = h+1, mask>>1 {
		if mask&1 != 0 {
			if len(s) > 1 {
				s += ","
			}
			s += fmt.Sprint(h)
		}
	}
	return s + "}"
}

// renderLog formats the global commit-log window, oldest entry first.
func (o *storeOracle) renderLog() []string {
	n := o.logN
	if n > orderLogSize {
		n = orderLogSize
	}
	out := make([]string, 0, n+1)
	out = append(out, fmt.Sprintf("global commit log (last %d of %d records):", n, o.logN))
	for i := o.logN - n; i < o.logN; i++ {
		e := o.log[i%orderLogSize]
		if e.event {
			out = append(out, fmt.Sprintf("  own   hart=%d line=%#x %s", e.hart, e.line, e.kind))
		} else {
			out = append(out, fmt.Sprintf("  store hart=%d g#%-5d pc=%#06x %s [addr=%#x]",
				e.hart, e.commit, e.pc, e.inst.String(), e.addr))
		}
	}
	return out
}
