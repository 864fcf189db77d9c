package compiler

import (
	"xt910/internal/asm"
	"xt910/isa"
)

// Baseline is the stock-compiler backend: no induction-variable optimization,
// no anchors, no DSE, base ISA only (§IX's description of "the existing
// RISC-V compilers").
type Baseline struct{}

// Name implements Backend.
func (Baseline) Name() string { return "baseline" }

// Compile implements Backend.
func (b Baseline) Compile(f *Function) ([]asm.Item, error) { return compile(f, b) }

func (Baseline) prologue(*emitter) {}

func (b Baseline) stmt(e *emitter, s *Stmt) {
	switch {
	case s.Kind == SAddImm:
		e.emit(asm.RRI(isa.ADDIW, e.reg(s.Dst), e.reg(s.A), s.Imm)) // 32-bit churn (§IX item 1)
	case s.Kind == SAccum:
		e.mac(s)
	default: // a memory access re-materializes its global's address every time
		e.emit(asm.La(rAnchor, s.G))
		b.access(e, s, rAnchor)
	}
}

// access emits a memory statement against base, its global's address. An
// indexed access sign-extends the 32-bit index and rebuilds the element
// address every time (§IX item 1 churn).
func (Baseline) access(e *emitter, s *Stmt, base isa.Reg) {
	if s.Kind.indexed() {
		e.emit(asm.RRI(isa.ADDIW, rAddr, e.reg(s.Idx), 0), // sext.w
			asm.RRI(isa.SLLI, rAddr, rAddr, 2),
			asm.RRR(isa.ADD, rAddr, rAddr, base))
		base = rAddr
	}
	e.loadStore(s, 0, base)
}

// loop is -O2-class: array bases are hoisted out of the loop. What it lacks
// is exactly what §IX lists — induction variable optimization (each access
// still sign-extends the 32-bit index and rebuilds the element address, and
// the control code stays inside the loop), the anchor scheme (each global
// gets its own base register) and DSE (every store is emitted).
func (b Baseline) loop(e *emitter, lp *Loop) {
	iv := e.reg(lp.Induction)
	bases, order := e.pointers(lp.Body, func(s *Stmt) bool { return s.Kind.memory() })
	for _, g := range order {
		e.emit(asm.La(bases[g], g))
	}
	top := e.label()
	e.emit(asm.Li(iv, 0), asm.Label(top))
	for i := range lp.Body {
		if s := &lp.Body[i]; s.Kind.memory() {
			b.access(e, s, bases[s.G])
		} else {
			e.stmt(s)
		}
	}
	e.emit(asm.RRI(isa.ADDIW, iv, iv, 1),
		asm.Li(rAnchor, int64(lp.N)),
		asm.Branch(isa.BLT, iv, rAnchor, top))
}
