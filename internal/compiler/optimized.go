package compiler

import (
	"xt910/internal/asm"
	"xt910/isa"
)

// Optimized is the XT-910 toolchain backend (§IX + §VIII custom extensions).
type Optimized struct {
	// UseCustomExt selects the §VIII instructions (indexed load/store, mula).
	// Disabling it isolates the pure compiler-optimization gain.
	UseCustomExt bool
}

// Name implements Backend.
func (o Optimized) Name() string {
	if o.UseCustomExt {
		return "optimized+ext"
	}
	return "optimized"
}

// Compile implements Backend.
func (o Optimized) Compile(f *Function) ([]asm.Item, error) {
	// Each global's offset from the anchor (§IX item 2: "allocates the
	// variables of the same function to a continuous address space, saves
	// the starting address of this space to a register").
	offsets := map[string]int{}
	off := 0
	for _, g := range f.Globals {
		offsets[g.Name] = off
		off += g.Words * 4
	}
	return compile(f, optimizer{ext: o.UseCustomExt, offsets: offsets})
}

// optimizer is the Optimized backend at work on one function.
type optimizer struct {
	ext     bool
	offsets map[string]int
}

func (optimizer) prologue(e *emitter) { e.emit(asm.La(rAnchor, "globals")) } // the anchor register (§IX)

func fitsImm12(v int) bool { return v >= -2048 && v <= 2047 }

// anchored sets rd to the anchor plus off, whatever off's magnitude.
func anchored(e *emitter, rd isa.Reg, off int) {
	if fitsImm12(off) {
		e.emit(asm.RRI(isa.ADDI, rd, rAnchor, int64(off)))
	} else {
		e.emit(asm.Li(rd, int64(off)), asm.RRR(isa.ADD, rd, rd, rAnchor))
	}
}

// stmt lowers a statement outside the strength-reduced form of a loop.
func (o optimizer) stmt(e *emitter, s *Stmt) {
	off := o.offsets[s.G]
	switch {
	case s.Kind == SAddImm:
		e.emit(asm.RRI(isa.ADDI, e.reg(s.Dst), e.reg(s.A), s.Imm)) // churn removed (§IX item 1)
	case s.Kind == SAccum && o.ext:
		e.emit(asm.RRR(isa.XMULA, e.reg(s.Dst), e.reg(s.A), e.reg(s.B))) // §VIII-B MAC
	case s.Kind == SAccum:
		e.mac(s)
	case s.Kind == SLoadIdx && o.ext:
		anchored(e, rAddr, off)
		e.emit(asm.Inst(isa.XLRW, e.reg(s.Dst), rAddr, e.reg(s.Idx), 2)) // §VIII-A indexed load
	case s.Kind == SStoreIdx && o.ext:
		anchored(e, rAddr, off)
		e.emit(asm.Inst(isa.XSRW, e.reg(s.A), rAddr, e.reg(s.Idx), 2))
	case s.Kind.indexed():
		anchored(e, rAddr, off)
		e.emit(asm.RRI(isa.SLLI, rScale, e.reg(s.Idx), 2), asm.RRR(isa.ADD, rAddr, rAddr, rScale))
		e.loadStore(s, 0, rAddr)
	case fitsImm12(off): // a scalar global, straight off the anchor
		e.loadStore(s, off, rAnchor)
	default:
		anchored(e, rAddr, off)
		e.loadStore(s, 0, rAddr)
	}
}

// loop applies DSE and induction-variable strength reduction, then emits a
// count-down loop with walking pointers for induction-indexed arrays.
func (o optimizer) loop(e *emitter, lp *Loop) {
	body := deadStoreEliminate(lp.Body)
	walks := func(s *Stmt) bool { return s.Kind.indexed() && s.Idx == lp.Induction }
	ptrs, order := e.pointers(body, walks)
	needsIV := false
	for i := range body {
		s := &body[i]
		needsIV = needsIV || !walks(s) && (s.A == lp.Induction || s.B == lp.Induction || s.Idx == lp.Induction)
	}

	// Preheader: pointers start at the array bases; a count-down register
	// replaces the compare against the bound (§IX item 1: control code moved
	// out of the loop).
	for _, g := range order {
		anchored(e, ptrs[g], o.offsets[g])
	}
	iv := isa.RegNone
	if needsIV {
		iv = e.reg(lp.Induction)
		e.emit(asm.Li(iv, 0))
	}
	top := e.label()
	e.emit(asm.Li(rCount, int64(lp.N)), asm.Label(top))
	for i := range body {
		if s := &body[i]; walks(s) {
			e.loadStore(s, 0, ptrs[s.G])
		} else {
			e.stmt(s)
		}
	}
	for _, g := range order {
		e.emit(asm.RRI(isa.ADDI, ptrs[g], ptrs[g], 4))
	}
	if needsIV {
		e.emit(asm.RRI(isa.ADDI, iv, iv, 1))
	}
	e.emit(asm.RRI(isa.ADDI, rCount, rCount, -1), asm.Bz(isa.BNE, rCount, top))
}

// deadStoreEliminate removes stores that are overwritten by a later store to
// the same location with no intervening read of that global (§IX item 3).
func deadStoreEliminate(body []Stmt) []Stmt {
	keep := make([]bool, len(body))
	for i := range keep {
		keep[i] = true
	}
	for i, s := range body {
		if s.Kind != SStoreG && s.Kind != SStoreIdx {
			continue
		}
		for j := i + 1; j < len(body); j++ {
			t := body[j]
			// a read of the same global keeps the store live
			if (t.Kind == SLoadG || t.Kind == SLoadIdx) && t.G == s.G {
				break
			}
			if t.Kind == s.Kind && t.G == s.G && t.Idx == s.Idx {
				keep[i] = false // killed before any read
				break
			}
		}
	}
	out := make([]Stmt, 0, len(body))
	for i, s := range body {
		if keep[i] {
			out = append(out, s)
		}
	}
	return out
}
