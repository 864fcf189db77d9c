package compiler

import (
	"fmt"
	"strconv"

	"xt910/internal/asm"
	"xt910/isa"
)

// Backend compiles a function to the assembler's Items.
type Backend interface {
	// Compile returns the program; it exits with Result.
	Compile(f *Function) ([]asm.Item, error)
	// Name identifies the backend in reports.
	Name() string
}

// Registers the backends keep for themselves.
const (
	rAnchor = isa.S0  // optimized: the globals anchor; baseline: a global's address, a loop bound
	rAddr   = isa.S1  // an element address or a product
	rCount  = isa.S2  // optimized: a loop's countdown
	rRepeat = isa.S11 // the Repeat countdown
	rScale  = isa.T6  // optimized: a scaled index
)

// ptrRegs hold a loop's array bases (baseline) or walking pointers (optimized).
var ptrRegs = []isa.Reg{isa.S3, isa.S4, isa.S5, isa.S6, isa.S7}

// pool is what the allocator hands out, in order: every integer register that
// no backend keeps, except a0 (the exit value) and sp. Compiled code makes no
// calls and has no global or thread pointer, so ra, gp and tp are free; a7 is
// free because the exit epilogue reads the result before it sets a7.
var pool = []isa.Reg{
	isa.T0, isa.T1, isa.T2, isa.T3, isa.T4, isa.T5,
	isa.A2, isa.A3, isa.A4, isa.A5, isa.A6, isa.A7,
	isa.A1, isa.S8, isa.S9, isa.S10, isa.GP, isa.TP, isa.RA,
}

// lowering is what a backend adds to the code both share.
type lowering interface {
	// prologue follows _start, before the Repeat loop opens.
	prologue(e *emitter)
	// stmt emits a statement of a kind other than the five plain ones.
	stmt(e *emitter, s *Stmt)
	// loop emits a counted loop; e.stmt emits the statements it does not
	// lower itself.
	loop(e *emitter, lp *Loop)
}

// emitter collects one function's Items and its register assignment.
type emitter struct {
	lower lowering
	items []asm.Item
	regs  map[VReg]isa.Reg
	loops int   // loop labels handed out
	err   error // the first failure, which compile returns
}

// compile is the code both backends emit: the Repeat wrapper around the
// function body, the exit epilogue and the globals block, laid out
// contiguously under one label so that the optimized backend can anchor them.
func compile(f *Function, l lowering) ([]asm.Item, error) {
	e := &emitter{lower: l, regs: map[VReg]isa.Reg{}}
	e.emit(asm.Label("_start"))
	l.prologue(e)
	if f.Repeat > 1 {
		e.emit(asm.Li(rRepeat, int64(f.Repeat)), asm.Label("bench_rep"))
	}
	for _, n := range f.Code {
		switch {
		case n.Stmt != nil:
			e.stmt(n.Stmt)
		case n.Loop != nil:
			l.loop(e, n.Loop)
		}
	}
	res := e.reg(f.Result)
	if f.Repeat > 1 {
		e.emit(asm.RRI(isa.ADDI, rRepeat, rRepeat, -1), asm.Bz(isa.BNE, rRepeat, "bench_rep"))
	}
	e.emit(asm.RRI(isa.ADDI, isa.A0, res, 0), asm.Li(isa.A7, 93), asm.Sys(isa.ECALL))
	e.emit(asm.Align(3), asm.Label("globals"))
	for _, g := range f.Globals {
		words := make([]int64, g.Words)
		for i := range words {
			if g.Init != nil {
				words[i] = int64(g.Init(i))
			}
		}
		e.emit(asm.Label(g.Name), asm.Data(4, words))
	}
	if e.err != nil {
		return nil, e.err
	}
	return e.items, nil
}

func (e *emitter) emit(items ...asm.Item) { e.items = append(e.items, items...) }

func (e *emitter) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// reg maps v onto a physical register, the next one in pool on v's first use.
func (e *emitter) reg(v VReg) isa.Reg {
	r, ok := e.regs[v]
	if !ok {
		if len(e.regs) == len(pool) {
			e.fail(fmt.Errorf("compiler: out of registers (%d virtuals)", len(e.regs)+1))
			return isa.RegNone
		}
		r = pool[len(e.regs)]
		e.regs[v] = r
	}
	return r
}

// label names the next loop's head.
func (e *emitter) label() string {
	e.loops++
	return "loop" + strconv.Itoa(e.loops)
}

// stmt emits one statement: the plain kinds here, the rest as the backend
// lowers them.
func (e *emitter) stmt(s *Stmt) {
	switch s.Kind {
	case SConst:
		e.emit(asm.Li(e.reg(s.Dst), s.Imm))
	case SAdd:
		e.emit(asm.RRR(isa.ADD, e.reg(s.Dst), e.reg(s.A), e.reg(s.B)))
	case SSub:
		e.emit(asm.RRR(isa.SUB, e.reg(s.Dst), e.reg(s.A), e.reg(s.B)))
	case SMul:
		e.emit(asm.RRR(isa.MUL, e.reg(s.Dst), e.reg(s.A), e.reg(s.B)))
	case SShl:
		e.emit(asm.RRI(isa.SLLI, e.reg(s.Dst), e.reg(s.A), s.Imm))
	case SAddImm, SLoadIdx, SStoreIdx, SLoadG, SStoreG, SAccum:
		e.lower.stmt(e, s)
	default:
		e.fail(fmt.Errorf("compiler: unknown stmt kind %d", s.Kind))
	}
}

// loadStore emits s's load or store at off(base).
func (e *emitter) loadStore(s *Stmt, off int, base isa.Reg) {
	if s.Kind == SLoadIdx || s.Kind == SLoadG {
		e.emit(asm.Load(isa.LW, e.reg(s.Dst), off, base))
	} else {
		e.emit(asm.Store(isa.SW, e.reg(s.A), off, base))
	}
}

// mac is SAccum in base-ISA instructions: the product, then the add.
func (e *emitter) mac(s *Stmt) {
	dst := e.reg(s.Dst)
	e.emit(asm.RRR(isa.MUL, rAddr, e.reg(s.A), e.reg(s.B)), asm.RRR(isa.ADD, dst, dst, rAddr))
}

// pointers gives each global that the picked statements of body access a
// register of ptrRegs, in order of first use.
func (e *emitter) pointers(body []Stmt, pick func(*Stmt) bool) (map[string]isa.Reg, []string) {
	regs := map[string]isa.Reg{}
	var order []string
	for i := range body {
		s := &body[i]
		if _, ok := regs[s.G]; ok || !pick(s) {
			continue
		}
		if len(order) == len(ptrRegs) {
			e.fail(fmt.Errorf("compiler: more than %d arrays in a loop", len(ptrRegs)))
			break
		}
		regs[s.G] = ptrRegs[len(order)]
		order = append(order, s.G)
	}
	return regs, order
}

// StaticInsts counts the instructions a compiled program contains (the §IX
// "total number of the instructions" metric): a li or la counts as one,
// whatever it expands to.
func StaticInsts(items []asm.Item) int {
	n := 0
	for i := range items {
		switch items[i].Kind {
		case asm.KindInst, asm.KindBranch, asm.KindLi, asm.KindLa:
			n++
		}
	}
	return n
}
