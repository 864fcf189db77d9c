package cosim

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"xt910/internal/asm"
	"xt910/isa"
)

// The fuzzer generates deterministic random RV64IMFD+RVC+V-subset programs
// biased toward the hazards the pipeline gets wrong first: long RAW chains,
// misaligned and line-crossing loads/stores with store-to-load forwarding,
// LR/SC pairs with intervening stores, forward branches into compressed
// regions, counted loops (loop buffer), fence.i after self-modifying stores,
// AMOs, CSR traffic and the XT custom ops. Programs terminate by
// construction: all generated branches are forward except counted loops on a
// dedicated counter register.
//
// The generator is a front end of the assembler: it emits asm.Items, which
// asm.Builder turns into the image directly. Text exists only where someone
// reads it (GenerateSource, a shrunk reproducer), printed from the same Items.
//
// Register conventions inside generated programs:
//
//	x8  (s0)  scratch-buffer base, never written after the prologue
//	x29 (t4)  loop counter / address temporary, never in the random pool
//	x17 (a7)  syscall number, written only by the exit epilogue
//	x2  (sp)  stack pointer, used only as a base for sp-relative accesses
//
// Everything else (incl. the FP file) is fair game.

// gpPool is the set of integer registers the generator reads and writes.
var gpPool = []isa.Reg{1, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16,
	18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 30, 31}

const (
	bufBytes = 2048
	fpRegs   = 16 // f0..f15 participate

	xBuf = isa.S0 // x8
	xTmp = isa.T4 // x29
)

// FuzzResult is the outcome of one seeded fuzz iteration.
type FuzzResult struct {
	Seed     int64
	Err      error // generation/assembly failure: a fuzzer bug, not a model bug
	Diverged bool
	Result   Result // run of the full generated program
	Shrunk   string // minimized reproducer (set when Diverged)

	// TimedOut marks a seed killed by the per-seed watchdog (after one retry
	// at twice the budget); Retried marks a seed that needed the retry but
	// finished within the doubled budget.
	TimedOut bool
	Retried  bool

	Clock HostClock // of the full program's run
}

// Fuzz generates the program for seed, runs it in lock-step, and minimizes
// any divergence. nSegs controls program size (0 means 40 segments).
func Fuzz(seed int64, nSegs int, opts Options) FuzzResult {
	return FuzzContext(context.Background(), seed, nSegs, opts)
}

// FuzzContext is Fuzz with cancellation: an expired deadline marks the result
// TimedOut instead of blocking on a pathological seed.
func FuzzContext(ctx context.Context, seed int64, nSegs int, opts Options) FuzzResult {
	fr := FuzzResult{Seed: seed}
	if err := opts.Validate(); err != nil {
		fr.Err = fmt.Errorf("seed %d: %w", seed, err)
		return fr
	}
	modes := opts.modes()
	prog := generate(seed, nSegs, modes, opts.effectiveHarts())
	if modes.IRQ {
		opts.IRQSchedules = prog.irqs
	}
	p, err := prog.build(nil)
	if err != nil {
		fr.Err = fmt.Errorf("seed %d: assemble: %w", seed, err)
		return fr
	}
	fr.Result, fr.Clock = run(ctx, p, opts)
	if fr.Result.TimedOut {
		fr.TimedOut = true
		return fr
	}
	if !fr.Result.Diverged {
		return fr
	}
	fr.Diverged = true
	fr.Shrunk = shrink(prog, opts)
	return fr
}

// GenerateSource returns the deterministic fuzz program for a seed as
// assembly text, together with hart 0's interrupt schedule (empty unless
// opts.Modes.IRQ).
func GenerateSource(seed int64, nSegs int, opts Options) (string, []IRQEvent) {
	prog := generate(seed, nSegs, opts.modes(), opts.effectiveHarts())
	if prog.irqs == nil {
		return prog.render(nil), nil
	}
	return prog.render(nil), prog.irqs[0]
}

// GenerateProgram returns the image of the deterministic fuzz program for a
// seed — byte for byte what assembling the GenerateSource text gives — and its
// per-hart interrupt schedules (nil unless opts.Modes.IRQ; pass them as
// Options.IRQSchedules). Fault-injection campaigns use it to rebuild the
// exact program a seed denotes.
func GenerateProgram(seed int64, nSegs int, opts Options) (*asm.Program, [][]IRQEvent, error) {
	prog := generate(seed, nSegs, opts.modes(), opts.effectiveHarts())
	p, err := prog.build(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("seed %d: assemble: %w", seed, err)
	}
	return p, prog.irqs, nil
}

// program is a generated test program in shrinkable form: a fixed prologue
// and epilogue around independent segments that can be dropped one by one.
type program struct {
	inits   []asm.Item   // register initialization (kept through shrinking)
	segs    [][]asm.Item // independent hazard segments
	trapEnd bool         // end with ebreak instead of the exit ecall
	data    []asm.Item   // scratch-buffer contents
	irqs    [][]IRQEvent // per-hart interrupt schedules (IRQ mode); implies the handler
	smp     bool         // SPMD multi-hart profile; implies the handler
}

// handler reports whether the program installs the interrupt handler: every
// scheduled run needs it for delivery, and every SMP run needs it so MSIP
// IPIs can be taken (and the level-triggered doorbell cleared).
func (p *program) handler() bool { return p.smp || p.irqs != nil }

// The fixed parts of every program.
var (
	progStart = []asm.Item{asm.Label("_start"), asm.La(xBuf, "buf")}
	// Install the handler and enable all three machine sources. Only x29
	// (never in the random pool) is clobbered, before its first use.
	progInstall = []asm.Item{
		asm.La(xTmp, "irq_handler"),
		asm.CSRW(isa.CSRMtvec, xTmp),
		asm.Li(xTmp, 0x888), // MSIE|MTIE|MEIE
		asm.CSRW(isa.CSRMie, xTmp),
		asm.CSRI(isa.CSRRSI, isa.Zero, isa.CSRMstatus, 8), // mstatus.MIE
	}
	progTrap = []asm.Item{asm.Sys(isa.EBREAK)}
	progExit = []asm.Item{asm.Li(isa.A7, 93), asm.Li(isa.A0, 0), asm.Sys(isa.ECALL)}
	progBuf  = []asm.Item{asm.Align(6), asm.Label("buf")}

	// The handler is transparent up to its trace in the buffer tail: x29 is
	// preserved through mscratch, mcause/mepc and a delivery counter are
	// logged where random stores may also land (both models see the same
	// interleaving, so cross-traffic is welcome), and mret resumes. Not
	// shrinkable: delivery needs it as long as the schedule exists. 4-byte
	// alignment matters: mtvec's two mode bits are masked off on delivery, so
	// a 2-byte-aligned handler (possible under compression) would vector into
	// the middle of the preceding instruction.
	progHandler = irqHandler(false)
	// The SMP handler also drops this hart's MSIP doorbell: the CLINT source
	// is level-triggered, so an un-cleared IPI would re-deliver forever after
	// mret. x30 rides through sscratch (x29 is already in mscratch); both
	// models run the handler, so the sscratch clobber compares clean like
	// any other architectural effect.
	progHandlerSMP = irqHandler(true)
)

func irqHandler(smp bool) []asm.Item {
	h := []asm.Item{asm.Align(2), asm.Label("irq_handler"), asm.CSRW(isa.CSRMscratch, xTmp)}
	if smp {
		h = append(h, asm.CSRW(isa.CSRSscratch, isa.T5))
	}
	h = append(h,
		asm.CSRR(xTmp, isa.CSRMcause),
		store(isa.SD, operand(xTmp), 2024, xBuf),
		asm.CSRR(xTmp, isa.CSRMepc),
		store(isa.SD, operand(xTmp), 2032, xBuf),
		asm.Load(isa.LD, xTmp, 2040, xBuf),
		rri(isa.ADDI, xTmp, operand(xTmp), 1),
		store(isa.SD, operand(xTmp), 2040, xBuf))
	if smp {
		h = append(h,
			asm.CSRR(xTmp, isa.CSRMhartid),
			rri(isa.SLLI, xTmp, operand(xTmp), 2),
			asm.Li(isa.T5, 0x02000000), // CLINT msip base
			rrr(isa.ADD, xTmp, operand(xTmp), operand(isa.T5)),
			store(isa.SW, operand(isa.Zero), 0, xTmp),
			asm.CSRR(isa.T5, isa.CSRSscratch))
	}
	return append(h, asm.CSRR(xTmp, isa.CSRMscratch), asm.Sys(isa.MRET))
}

// each calls f on the program's parts in image order, leaving the masked-out
// segments out (mask==nil keeps everything).
func (p *program) each(mask []bool, f func([]asm.Item)) {
	f(progStart)
	if p.handler() {
		f(progInstall)
	}
	f(p.inits)
	for i, seg := range p.segs {
		if mask == nil || mask[i] {
			f(seg)
		}
	}
	if p.trapEnd {
		f(progTrap)
	} else {
		f(progExit)
	}
	switch {
	case p.smp:
		f(progHandlerSMP)
	case p.handler():
		f(progHandler)
	}
	f(progBuf)
	f(p.data)
}

// render prints the program as assembly source.
func (p *program) render(mask []bool) string {
	buf := make([]byte, 0, 16<<10)
	p.each(mask, func(items []asm.Item) { buf = asm.AppendSource(buf, items) })
	return string(buf)
}

// build assembles the program straight from its Items.
func (p *program) build(mask []bool) (*asm.Program, error) {
	b := asm.NewBuilder(asm.Options{Base: 0x1000, Compress: true}, 2*bufBytes+512)
	p.each(mask, b.Add)
	return b.Program()
}

// operand is a source register as the generator chose it. After a
// self-modifying segment the RAW-chain register is remembered by its ABI name
// (it came out of an isa.Inst), and the text spells it that way.
type operand uint16

const (
	abiName   operand = 1 << 8
	noOperand         = operand(isa.RegNone)
)

func (o operand) reg() isa.Reg { return isa.Reg(o & 0xFF) }

// The generator's own Item constructors: the shapes whose source operands
// may be the RAW-chain register, which carries its spelling (the asm
// constructors write the rest).

// spelled marks the operands the generator remembers by ABI name.
func spelled(it asm.Item, rs1, rs2 operand) asm.Item {
	if rs1&abiName != 0 {
		it.Spell |= asm.SpellABIRs1
	}
	if rs2&abiName != 0 {
		it.Spell |= asm.SpellABIRs2
	}
	return it
}

func inst(op isa.Op, rd isa.Reg, rs1, rs2 operand, imm int64) asm.Item {
	return spelled(asm.Inst(op, rd, rs1.reg(), rs2.reg(), imm), rs1, rs2)
}

func rrr(op isa.Op, rd isa.Reg, rs1, rs2 operand) asm.Item { return inst(op, rd, rs1, rs2, 0) }
func rr(op isa.Op, rd isa.Reg, rs1 operand) asm.Item       { return inst(op, rd, rs1, noOperand, 0) }
func rri(op isa.Op, rd isa.Reg, rs1 operand, imm int64) asm.Item {
	return inst(op, rd, rs1, noOperand, imm)
}

func store(op isa.Op, data operand, off int, base isa.Reg) asm.Item {
	return spelled(asm.Store(op, data.reg(), off, base), noOperand, data)
}

func amo(op isa.Op, rd isa.Reg, data operand, base isa.Reg) asm.Item {
	return spelled(asm.AMO(op, rd, data.reg(), base), noOperand, data)
}

func branch(op isa.Op, rs1, rs2 operand, target string) asm.Item {
	return spelled(asm.Branch(op, rs1.reg(), rs2.reg(), target), rs1, rs2)
}

func csr(op isa.Op, rd isa.Reg, num uint16, rs1 operand) asm.Item {
	return spelled(asm.CSR(op, rd, num, rs1.reg()), rs1, noOperand)
}

// vsetvli is "vsetvli rd, x29, e32, m1".
func vsetvli(rd isa.Reg) asm.Item {
	return asm.RRI(isa.VSETVLI, rd, xTmp, int64(isa.MakeVType(isa.SEW32, 0)))
}

type gen struct {
	rng      *rand.Rand
	items    []asm.Item // everything emitted so far: inits, then the segments back to back
	label    int
	lastDest operand  // RAW-chain bias: last integer destination written
	kinds    []segRow // the mode set's root segment table (segTables)
	harts    int      // hart count the SMP segments target (IPI wrap-around)
	prog     program  // what generate returns, in g's allocation (g escapes through the segment emitters)
}

func (g *gen) emit(items ...asm.Item) { g.items = append(g.items, items...) }

func (g *gen) reg() isa.Reg  { return gpPool[g.rng.Intn(len(gpPool))] }
func (g *gen) freg() isa.Reg { return isa.F(g.rng.Intn(fpRegs)) }

// dest records rd as the RAW-chain register.
func (g *gen) dest(rd isa.Reg) { g.lastDest = operand(rd) }

// src picks a source operand: usually a pool register, sometimes x0 and
// sometimes the previous destination (RAW chain).
func (g *gen) src() operand {
	r := g.rng.Intn(100)
	switch {
	case r < 12:
		return operand(isa.Zero)
	case r < 55 && g.lastDest != noOperand:
		return g.lastDest
	}
	return operand(g.reg())
}

func (g *gen) newLabel(stem string) string {
	g.label++
	return stem + "_" + strconv.Itoa(g.label)
}

func generate(seed int64, nSegs int, modes Modes, harts int) *program {
	if nSegs == 0 {
		nSegs = 40
	}
	if harts < 1 {
		harts = 1
	}
	// The Item buffer holds a little over the mean segment length per
	// segment (the SMP contention segments are the long ones).
	perSeg := 5
	if modes.SMP {
		perSeg = 8
	}
	g := &gen{rng: rand.New(rand.NewSource(seed)), kinds: segTables[modes], harts: harts, lastDest: noOperand,
		items: make([]asm.Item, 0, 48+nSegs*perSeg)}
	// trapEnd is incompatible with an installed handler (ebreak would vector
	// into it and mret back onto itself forever), so IRQ and SMP programs
	// always end on the exit ecall.
	p := &g.prog
	p.smp, p.trapEnd = modes.SMP, !modes.IRQ && !modes.SMP && g.rng.Intn(10) == 0
	for _, r := range gpPool {
		g.emit(asm.Li(r, int64(g.rng.Uint64())))
	}
	for f := 0; f < fpRegs; f++ {
		g.emit(rr(isa.FMVDX, isa.F(f), operand(g.reg())))
	}
	ends := make([]int, nSegs+1) // ends[i] is where segment i starts in g.items
	for i := 0; i < nSegs; i++ {
		ends[i] = len(g.items)
		g.segment()
	}
	ends[nSegs] = len(g.items)
	p.inits = g.items[:ends[0]:ends[0]]
	p.segs = make([][]asm.Item, nSegs)
	for i := range p.segs {
		p.segs[i] = g.items[ends[i]:ends[i+1]:ends[i+1]]
	}
	words := make([]int64, bufBytes/8)
	for i := range words {
		words[i] = int64(g.rng.Uint64())
	}
	p.data = []asm.Item{asm.Data(8, words)}
	if modes.IRQ {
		// One schedule per hart, drawn in hart order from the same stream
		// (hart 0's draw matches the single-hart stream exactly).
		p.irqs = make([][]IRQEvent, harts)
		for h := 0; h < harts; h++ {
			p.irqs[h] = g.schedule(nSegs)
		}
	}
	return p
}

// schedule derives the interrupt-injection schedule from the same seeded
// stream: a handful of events spread over the program's estimated dynamic
// length (segments average a few instructions, loops stretch it — late
// events that never arm are harmless). One in three events drives several
// mip bits at once, exercising the MEI > MSI > MTI priority ordering.
func (g *gen) schedule(nSegs int) []IRQEvent {
	n := 2 + g.rng.Intn(4)
	span := uint64(nSegs*6 + 64)
	evs := make([]IRQEvent, 0, n)
	var at uint64 = 5
	for i := 0; i < n; i++ {
		at += 1 + uint64(g.rng.Int63n(int64(span)/int64(n)+1))
		bits := uint64(1) << []uint{isa.IntMSoft, isa.IntMTimer, isa.IntMExt}[g.rng.Intn(3)]
		if g.rng.Intn(3) == 0 {
			bits |= 1 << []uint{isa.IntMSoft, isa.IntMTimer, isa.IntMExt}[g.rng.Intn(3)]
		}
		evs = append(evs, IRQEvent{AfterCommit: at, Bits: bits})
	}
	return evs
}

// A segRow is one kind of segment: its weight among its table's rows and
// either an emitter or a nested table to draw from in turn. smp, on a base
// row, is the emitter that replaces the row under the SMP profile.
type segRow struct {
	weight int
	emit   func(*gen)
	sub    []segRow
	smp    func(*gen)
}

// baseKinds is every profile's segment mix. The SMP profile swaps the rows
// that are unsound across harts for scalar equivalents: vector stores write
// memory at execute time (a remote hart would see them out of commit order),
// and cross-hart self-modifying code has no defined coherence point in the
// model. Adding a segment shape is adding a row here or in a nested table.
var baseKinds = []segRow{
	{weight: 28, emit: (*gen).segALU},
	{weight: 16, emit: (*gen).segMem},
	{weight: 8, emit: (*gen).segBranch},
	{weight: 7, emit: (*gen).segLoop},
	{weight: 7, emit: (*gen).segLRSC},
	{weight: 6, emit: (*gen).segAMO},
	{weight: 7, emit: (*gen).segFPU},
	{weight: 5, emit: (*gen).segCSR},
	{weight: 5, emit: (*gen).segFFlags},
	{weight: 4, emit: (*gen).segCustom},
	{weight: 3, emit: (*gen).segSMC, smp: (*gen).segMem},
	{weight: 4, sub: vectorKinds, smp: (*gen).segALU},
}

// Vector blocks (configure, load, compute, store, extract) keep their
// addresses inside the buffer (VL <= 16, SEW == 32 bits).
var vectorKinds = []segRow{{weight: 1, emit: (*gen).segVectorUnit}, {weight: 1, emit: (*gen).segVectorMasked},
	{weight: 1, emit: (*gen).segVectorStrided}, {weight: 1, emit: (*gen).segVectorIndexed}}

// smpKinds are the cross-hart contention segments.
var smpKinds = []segRow{{weight: 1, emit: (*gen).segSMPLRSC}, {weight: 1, emit: (*gen).segSMPAMO},
	{weight: 1, emit: (*gen).segSMPProdCons}, {weight: 1, emit: (*gen).segSMPIPI}}

// pagedKinds only make sense under translation: accesses through the +1GB
// alias window, page-crossing accesses, and (rarely) a page fault that ends
// the program.
var pagedKinds = []segRow{{weight: 1, emit: (*gen).segPageFault}, {weight: 2, emit: (*gen).segAliasStore},
	{weight: 1, emit: (*gen).segPageCross}, {weight: 4, emit: (*gen).segAliasLRSC}}

// segTables is each mode set's root table: the base rows (SMP column applied
// under SMP) below a one-in-n tier per mode, outermost first — SMP 1 in 3,
// then paged 1 in 12, then irq 1 in 8.
var segTables = map[Modes][]segRow{}

func init() {
	smpBase := slices.Clone(baseKinds)
	for i, k := range smpBase {
		if k.smp != nil {
			smpBase[i] = segRow{weight: k.weight, emit: k.smp}
		}
	}
	for i := range 8 {
		m := Modes{Paged: i&1 != 0, IRQ: i&2 != 0, SMP: i&4 != 0}
		t := baseKinds
		if m.SMP {
			t = smpBase
		}
		t = tier(m.IRQ, 8, segRow{emit: (*gen).segIRQ}, t)
		t = tier(m.Paged, 12, segRow{sub: pagedKinds}, t)
		segTables[m] = tier(m.SMP, 3, segRow{sub: smpKinds}, t)
	}
}

// tier draws row one time in n and the table t otherwise, when on.
func tier(on bool, n int, row segRow, t []segRow) []segRow {
	if !on {
		return t
	}
	row.weight = 1
	return []segRow{row, {weight: n - 1, sub: t}}
}

// pick draws one row of t by weight and emits it; a one-row table draws
// nothing from the stream.
func (g *gen) pick(t []segRow) {
	i := 0
	if len(t) > 1 {
		sum := 0
		for _, k := range t {
			sum += k.weight
		}
		for r := g.rng.Intn(sum); r >= t[i].weight; i++ {
			r -= t[i].weight
		}
	}
	if k := &t[i]; k.sub != nil {
		g.pick(k.sub)
	} else {
		k.emit(g)
	}
}

// segment emits one self-contained hazard segment.
func (g *gen) segment() { g.pick(g.kinds) }

var aluRR = []isa.Op{isa.ADD, isa.SUB, isa.SLL, isa.SRL, isa.SRA, isa.SLT, isa.SLTU, isa.XOR, isa.OR, isa.AND,
	isa.ADDW, isa.SUBW, isa.SLLW, isa.SRLW, isa.SRAW,
	isa.MUL, isa.MULH, isa.MULHSU, isa.MULHU, isa.MULW,
	isa.DIV, isa.DIVU, isa.REM, isa.REMU, isa.DIVW, isa.DIVUW, isa.REMW, isa.REMUW}
var aluRI = []isa.Op{isa.ADDI, isa.SLTI, isa.SLTIU, isa.XORI, isa.ORI, isa.ANDI, isa.ADDIW}

// aluInst makes one random integer ALU instruction.
func (g *gen) aluInst() asm.Item {
	rd := g.reg()
	var it asm.Item
	switch g.rng.Intn(10) {
	case 0, 1, 2:
		it = rri(aluRI[g.rng.Intn(len(aluRI))], rd, g.src(), int64(g.rng.Intn(4096)-2048))
	case 3:
		it = inst(isa.LUI, rd, noOperand, noOperand, int64(g.rng.Intn(1<<20))<<12)
	case 4:
		it = rri([]isa.Op{isa.SLLI, isa.SRLI, isa.SRAI}[g.rng.Intn(3)], rd, g.src(), int64(g.rng.Intn(64)))
	case 5:
		it = rri([]isa.Op{isa.SLLIW, isa.SRLIW, isa.SRAIW}[g.rng.Intn(3)], rd, g.src(), int64(g.rng.Intn(32)))
	default:
		it = rrr(aluRR[g.rng.Intn(len(aluRR))], rd, g.src(), g.src())
	}
	g.dest(rd)
	return it
}

func (g *gen) segALU() {
	n := 1 + g.rng.Intn(4)
	for i := 0; i < n; i++ {
		g.emit(g.aluInst())
	}
}

// Scalar memory ops by log2 of the access size; the FP forms exist from 4 bytes up.
var (
	storeOps   = [4]isa.Op{isa.SB, isa.SH, isa.SW, isa.SD}
	loadOps    = [4][]isa.Op{{isa.LB, isa.LBU}, {isa.LH, isa.LHU}, {isa.LW, isa.LWU}, {isa.LD}}
	fpStoreOps = [4]isa.Op{2: isa.FSW, 3: isa.FSD}
	fpLoadOps  = [4]isa.Op{2: isa.FLW, 3: isa.FLD}
)

// segMem mixes scalar loads and stores over the scratch buffer (misaligned
// and line-crossing offsets included) and sp-relative accesses that compress
// to the RVC stack forms: c.ldsp/c.sdsp and the FP spills c.fldsp/c.fsdsp.
func (g *gen) segMem() {
	n := 2 + g.rng.Intn(4)
	for i := 0; i < n; i++ {
		if g.rng.Intn(10) < 2 { // sp-relative (RVC stack forms)
			switch g.rng.Intn(4) {
			case 0:
				g.emit(store(isa.SD, operand(g.reg()), g.rng.Intn(32)*8, isa.SP))
			case 1:
				rd := g.reg()
				g.emit(asm.Load(isa.LD, rd, g.rng.Intn(32)*8, isa.SP))
				g.dest(rd)
			case 2: // FP spill: the full 9-bit c.fsdsp range (0..504)
				g.emit(store(isa.FSD, operand(g.freg()), g.rng.Intn(64)*8, isa.SP))
			default: // FP reload via c.fldsp
				g.emit(asm.Load(isa.FLD, g.freg(), g.rng.Intn(64)*8, isa.SP))
			}
			continue
		}
		lg := g.rng.Intn(4)
		size := 1 << lg
		off := g.rng.Intn(bufBytes - 8)
		if g.rng.Intn(10) < 6 { // mostly aligned, often not
			off &^= size - 1
		}
		if g.rng.Intn(2) == 0 {
			if size >= 4 && g.rng.Intn(6) == 0 {
				g.emit(store(fpStoreOps[lg], operand(g.freg()), off, xBuf))
				continue
			}
			g.emit(store(storeOps[lg], g.src(), off, xBuf))
		} else {
			ld := loadOps[lg][g.rng.Intn(len(loadOps[lg]))]
			if size >= 4 && g.rng.Intn(6) == 0 {
				g.emit(asm.Load(fpLoadOps[lg], g.freg(), off, xBuf))
				continue
			}
			rd := g.reg()
			g.emit(asm.Load(ld, rd, off, xBuf))
			g.dest(rd)
		}
	}
}

var branchOps = []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU}

// segBranch emits a forward conditional branch over a short block; the
// target lands on whatever alignment compression produces, so branches into
// compressed regions happen naturally.
func (g *gen) segBranch() {
	l := g.newLabel("skip")
	a, b := g.src(), g.src()
	if g.rng.Intn(5) == 0 {
		a = operand(isa.Zero)
	}
	g.emit(branch(branchOps[g.rng.Intn(len(branchOps))], a, b, l))
	for i := 0; i < 1+g.rng.Intn(3); i++ {
		g.emit(g.aluInst())
	}
	g.emit(asm.Label(l))
}

// segLoop emits a counted loop on the dedicated counter (loop-buffer food).
func (g *gen) segLoop() {
	l := g.newLabel("loop")
	g.emit(asm.Li(xTmp, int64(2+g.rng.Intn(5))), asm.Label(l))
	for i := 0; i < 1+g.rng.Intn(3); i++ {
		g.emit(g.aluInst())
	}
	g.emit(rri(isa.ADDI, xTmp, operand(xTmp), -1), asm.Bz(isa.BNE, xTmp, l))
}

// Atomics come as a {.w, .d} pair; width picks one and gives its alignment.
var (
	lrOps  = [2]isa.Op{isa.LRW, isa.LRD}
	scOps  = [2]isa.Op{isa.SCW, isa.SCD}
	amoOps = [][2]isa.Op{{isa.AMOSWAPW, isa.AMOSWAPD}, {isa.AMOADDW, isa.AMOADDD}, {isa.AMOANDW, isa.AMOANDD},
		{isa.AMOORW, isa.AMOORD}, {isa.AMOXORW, isa.AMOXORD}, {isa.AMOMAXW, isa.AMOMAXD}, {isa.AMOMINW, isa.AMOMIND}}
)

func (g *gen) width() (d, align int) {
	if g.rng.Intn(2) == 0 {
		return 0, 4
	}
	return 1, 8
}

// segLRSC emits an LR/SC pair over the buffer, often with an intervening
// store to the same or a different cache line, and sometimes an orphan SC.
func (g *gen) segLRSC() {
	d, align := g.width()
	off := g.rng.Intn(bufBytes-8) &^ (align - 1)
	g.emit(rri(isa.ADDI, xTmp, operand(xBuf), int64(off)))
	if g.rng.Intn(6) != 0 { // usually a real LR
		g.emit(amo(lrOps[d], g.reg(), noOperand, xTmp))
	}
	switch g.rng.Intn(3) {
	case 0: // intervening store to the same line
		same := off&^63 + g.rng.Intn(64)&^7
		g.emit(store(isa.SD, g.src(), same, xBuf))
	case 1: // intervening store to a different line
		other := (off + 64 + g.rng.Intn(bufBytes-128)) % (bufBytes - 8) &^ 7
		g.emit(store(isa.SD, g.src(), other, xBuf))
	}
	g.emit(amo(scOps[d], g.reg(), g.src(), xTmp))
}

func (g *gen) segAMO() {
	d, align := g.width()
	off := g.rng.Intn(bufBytes-8) &^ (align - 1)
	rd := g.reg()
	g.dest(rd)
	g.emit(rri(isa.ADDI, xTmp, operand(xBuf), int64(off)),
		amo(amoOps[g.rng.Intn(len(amoOps))][d], rd, g.src(), xTmp))
}

// SMP contention layout inside the shared data buffer. All harts run the same
// program (SPMD), so any buffer offset is automatically contended; these slots
// concentrate the traffic. The contention line (buf+1920..1983) and the
// producer/consumer line (buf+1856..1919, data and flag on the SAME line so
// the fence, not the coherence order, is what the test exercises) both stay
// clear of the handler trace slots at 2024/2032/2040.
const (
	smpLine     = 1920
	smpDataSlot = 1856
	smpFlagSlot = 1864
)

// distinct picks n distinct pool registers (deterministic rng consumption).
func (g *gen) distinct(n int) []isa.Reg {
	idx := g.rng.Perm(len(gpPool))[:n]
	out := make([]isa.Reg, n)
	for i, j := range idx {
		out[i] = gpPool[j]
	}
	return out
}

// segSMPLRSC is an LR/SC retry loop on the shared contention line: every hart
// ping-pongs ownership of one cache line, so SC failures, reservation kills by
// remote stores and the resulting retries are all exercised. The retry count
// is bounded so a pathological interleaving cannot livelock the program.
func (g *gen) segSMPLRSC() {
	d, align := g.width()
	regs := g.distinct(3)
	rd, ok, cnt := regs[0], regs[1], regs[2]
	off := smpLine + g.rng.Intn(64)&^(align-1)
	retry := g.newLabel("smp_retry")
	done := g.newLabel("smp_done")
	g.dest(rd)
	g.emit(
		asm.Li(cnt, int64(2+g.rng.Intn(4))),
		rri(isa.ADDI, xTmp, operand(xBuf), int64(off)),
		asm.Label(retry),
		amo(lrOps[d], rd, noOperand, xTmp),
		rri(isa.ADDI, rd, operand(rd), 1),
		amo(scOps[d], ok, operand(rd), xTmp),
		asm.Bz(isa.BEQ, ok, done),
		rri(isa.ADDI, cnt, operand(cnt), -1),
		asm.Bz(isa.BNE, cnt, retry),
		asm.Label(done))
}

// segSMPAMO hammers the shared contention line with one atomic op: AMOs from
// different harts to the same line force exclusive-ownership migration at
// every retirement.
func (g *gen) segSMPAMO() {
	d, align := g.width()
	off := smpLine + g.rng.Intn(64)&^(align-1)
	rd := g.reg()
	g.dest(rd)
	g.emit(rri(isa.ADDI, xTmp, operand(xBuf), int64(off)),
		amo(amoOps[g.rng.Intn(len(amoOps))][d], rd, g.src(), xTmp))
}

// segSMPProdCons is a fence-ordered producer/consumer handshake: hart 0
// publishes a value then raises a non-zero flag behind a fence; every other
// hart polls the flag ONCE (no spin — lock-step pacing makes arrival
// unpredictable and a spin could livelock) and, if raised, fences and reads
// the data back. Both worlds observe the same memory at the same commit
// boundaries, so the loaded pair must match — a reordered store pair in the
// pipeline world diverges here.
func (g *gen) segSMPProdCons() {
	regs := g.distinct(3)
	t, d, f := regs[0], regs[1], regs[2]
	cons := g.newLabel("smp_cons")
	done := g.newLabel("smp_pc_done")
	g.dest(d)
	g.emit(
		asm.CSRR(t, isa.CSRMhartid),
		asm.Bz(isa.BNE, t, cons),
		asm.Li(d, int64(g.rng.Uint64())),
		store(isa.SD, operand(d), smpDataSlot, xBuf),
		asm.Sys(isa.FENCE),
		asm.Li(f, int64(1+g.rng.Intn(255))),
		store(isa.SD, operand(f), smpFlagSlot, xBuf),
		branch(isa.BEQ, operand(isa.Zero), operand(isa.Zero), done),
		asm.Label(cons),
		asm.Load(isa.LD, f, smpFlagSlot, xBuf),
		asm.Bz(isa.BEQ, f, done),
		asm.Sys(isa.FENCE),
		asm.Load(isa.LD, d, smpDataSlot, xBuf),
		asm.Label(done))
}

// segSMPIPI sends a machine-software IPI by storing to a CLINT msip doorbell:
// the target is (mhartid + hop) mod harts, so harts ring each other and
// sometimes themselves. The handler (installed for every SMP program) clears
// the doorbell, so delivery is level-triggered but finite.
func (g *gen) segSMPIPI() {
	regs := g.distinct(2)
	t, v := regs[0], regs[1]
	hop := g.rng.Intn(g.harts)
	g.emit(
		asm.CSRR(xTmp, isa.CSRMhartid),
		rri(isa.ADDI, xTmp, operand(xTmp), int64(hop)),
		asm.Li(t, int64(g.harts)),
		rrr(isa.REMU, xTmp, operand(xTmp), operand(t)),
		rri(isa.SLLI, xTmp, operand(xTmp), 2),
		asm.Li(t, 0x02000000), // CLINT msip base
		rrr(isa.ADD, xTmp, operand(xTmp), operand(t)),
		asm.Li(v, 1),
		store(isa.SW, operand(v), 0, xTmp))
}

// Scalar FP ops as {.s, .d} pairs.
var (
	fpu2 = [][2]isa.Op{{isa.FADDS, isa.FADDD}, {isa.FSUBS, isa.FSUBD}, {isa.FMULS, isa.FMULD}, {isa.FDIVS, isa.FDIVD},
		{isa.FMINS, isa.FMIND}, {isa.FMAXS, isa.FMAXD}, {isa.FSGNJS, isa.FSGNJD}, {isa.FSGNJNS, isa.FSGNJND}, {isa.FSGNJXS, isa.FSGNJXD}}
	fcmp   = [][2]isa.Op{{isa.FEQS, isa.FEQD}, {isa.FLTS, isa.FLTD}, {isa.FLES, isa.FLED}}
	fsqrt  = [2]isa.Op{isa.FSQRTS, isa.FSQRTD}
	fma    = [][2]isa.Op{{isa.FMADDS, isa.FMADDD}, {isa.FMSUBS, isa.FMSUBD}}
	fcvtXF = []isa.Op{isa.FCVTWD, isa.FCVTLD, isa.FCVTWS, isa.FCVTLS}
	// the last two convert between the FP formats: their source is an FP register
	fcvtFX = []isa.Op{isa.FCVTDW, isa.FCVTDL, isa.FCVTSW, isa.FCVTSL, isa.FCVTDS, isa.FCVTSD}
)

func (g *gen) segFPU() {
	n := 1 + g.rng.Intn(3)
	for i := 0; i < n; i++ {
		sz := g.rng.Intn(2)
		switch g.rng.Intn(8) {
		case 0:
			rd := g.reg()
			g.emit(asm.FP(fcmp[g.rng.Intn(3)][sz], rd, g.freg(), g.freg(), isa.RegNone))
			g.dest(rd)
		case 1:
			g.emit(asm.FP(fsqrt[sz], g.freg(), g.freg(), isa.RegNone, isa.RegNone))
		case 2:
			g.emit(rr(isa.FMVDX, g.freg(), g.src()))
		case 3:
			rd := g.reg()
			g.emit(asm.FP(isa.FMVXD, rd, g.freg(), isa.RegNone, isa.RegNone))
			g.dest(rd)
		case 4:
			cv := fcvtXF[g.rng.Intn(4)]
			rd := g.reg()
			g.emit(asm.FP(cv, rd, g.freg(), isa.RegNone, isa.RegNone))
			g.dest(rd)
		case 5:
			k := g.rng.Intn(6)
			src := g.src()
			if k >= 4 {
				src = operand(g.freg())
			}
			g.emit(rr(fcvtFX[k], g.freg(), src))
		case 6:
			g.emit(asm.FP(fma[g.rng.Intn(2)][sz], g.freg(), g.freg(), g.freg(), g.freg()))
		default:
			g.emit(asm.FP(fpu2[g.rng.Intn(len(fpu2))][sz], g.freg(), g.freg(), g.freg(), isa.RegNone))
		}
	}
}

// segCSR reads and writes scratch CSRs and reads identity/counter CSRs,
// including the clock CSRs — the checker compares those modulo the clock by
// adopting the core's committed read value (see isCycleCSRRead).
func (g *gen) segCSR() {
	rd := g.reg()
	g.dest(rd)
	switch g.rng.Intn(7) {
	case 0:
		g.emit(csr(isa.CSRRW, rd, isa.CSRMscratch, g.src()))
	case 1:
		g.emit(csr(isa.CSRRS, rd, isa.CSRMscratch, g.src()))
	case 2:
		g.emit(csr(isa.CSRRC, rd, isa.CSRSscratch, g.src()))
	case 3:
		op := []isa.Op{isa.CSRRWI, isa.CSRRSI, isa.CSRRCI}[g.rng.Intn(3)]
		g.emit(asm.CSRI(op, rd, isa.CSRMscratch, int64(g.rng.Intn(32))))
	case 4:
		g.emit(asm.CSRR(rd, []uint16{isa.CSRMisa, isa.CSRMhartid, isa.CSRMscratch, isa.CSRSscratch}[g.rng.Intn(4)]))
	case 5: // clock CSRs: compared modulo the clock, then folded into state
		g.emit(asm.CSRR(rd, []uint16{isa.CSRCycle, isa.CSRTime, isa.CSRMcycle}[g.rng.Intn(3)]))
	default:
		g.emit(asm.CSRR(rd, isa.CSRInstret))
	}
}

// segCustom exercises the XT extension: address-generation fusion, bit
// manipulation, MACs, conditional moves and the indexed memory forms.
func (g *gen) segCustom() {
	rd := g.reg()
	g.dest(rd)
	switch g.rng.Intn(8) {
	case 0:
		g.emit(inst(isa.XADDSL, rd, g.src(), g.src(), int64(g.rng.Intn(4))))
	case 1:
		lsb := g.rng.Intn(64)
		msb := lsb + g.rng.Intn(64-lsb)
		op := []isa.Op{isa.XEXT, isa.XEXTU}[g.rng.Intn(2)]
		g.emit(rri(op, rd, g.src(), int64(msb<<6|lsb)))
	case 2:
		g.emit(rr([]isa.Op{isa.XFF0, isa.XFF1, isa.XREV, isa.XTSTNBZ}[g.rng.Intn(4)], rd, g.src()))
	case 3:
		g.emit(rri(isa.XSRRI, rd, g.src(), int64(g.rng.Intn(64))))
	case 4:
		g.emit(rrr([]isa.Op{isa.XMVEQZ, isa.XMVNEZ}[g.rng.Intn(2)], rd, g.src(), g.src()))
	case 5:
		op := []isa.Op{isa.XMULA, isa.XMULS, isa.XMULAH, isa.XMULSH, isa.XMULAW, isa.XMULSW}[g.rng.Intn(6)]
		g.emit(rrr(op, rd, g.src(), g.src()))
	case 6: // indexed load: x29 holds a bounded index
		sh := g.rng.Intn(4)
		op := []isa.Op{isa.XLRB, isa.XLRH, isa.XLRW, isa.XLRD, isa.XLURB, isa.XLURH, isa.XLURW}[g.rng.Intn(7)]
		g.emit(rri(isa.ANDI, xTmp, operand(g.reg()), 127),
			inst(op, rd, operand(xBuf), operand(xTmp), int64(sh)))
	default: // indexed store: data travels in rd
		sh := g.rng.Intn(4)
		op := []isa.Op{isa.XSRB, isa.XSRH, isa.XSRW, isa.XSRD}[g.rng.Intn(4)]
		g.emit(rri(isa.ANDI, xTmp, operand(g.reg()), 127),
			inst(op, g.reg(), operand(xBuf), operand(xTmp), int64(sh)))
	}
}

// segSMC patches the next instruction slot with a freshly encoded ALU
// instruction, then executes it after a fence.i. The placeholder is a
// 4-byte `xor x0, x0, x0`, which RVC compression cannot shrink, so the
// patch overwrites exactly one instruction.
func (g *gen) segSMC() {
	site := g.newLabel("patch")
	in := isa.NewInst(aluRR[g.rng.Intn(len(aluRR))])
	in.Rd, in.Rs1, in.Rs2 = g.reg(), g.reg(), g.reg()
	raw, err := isa.Encode(in)
	if err != nil {
		g.segALU() // unencodable pick: fall back, keep determinism
		return
	}
	g.lastDest = operand(in.Rd) | abiName
	carrier := g.reg()
	g.emit(
		asm.La(xTmp, site),
		asm.Li(carrier, int64(raw)),
		store(isa.SW, operand(carrier), 0, xTmp),
		asm.Sys(isa.FENCEI),
		asm.Label(site),
		rrr(isa.XOR, isa.Zero, operand(isa.Zero), operand(isa.Zero)))
}

var vecVVOps = []isa.Op{isa.VADDVV, isa.VSUBVV, isa.VANDVV, isa.VORVV, isa.VXORVV, isa.VMULVV, isa.VMINVV, isa.VMAXVV}

// vvOp draws one of the vector-vector ops.
func (g *gen) vvOp() isa.Op { return vecVVOps[g.rng.Intn(len(vecVVOps))] }

func (g *gen) segVectorUnit() {
	v := func() isa.Reg { return isa.V(g.rng.Intn(4)) }
	rd := g.reg()
	g.dest(rd)
	stOff := 1024 + g.rng.Intn(bufBytes/2-64)&^63
	g.emit(
		asm.Li(xTmp, int64(1+g.rng.Intn(16))),
		vsetvli(g.reg()),
		asm.VLoad(isa.VLE, v(), xBuf, isa.RegNone),
		asm.Vec(g.vvOp(), v(), v(), v(), false),
		rri(isa.ADDI, xTmp, operand(xBuf), int64(stOff)),
		asm.VStore(isa.VSE, v(), xTmp, isa.RegNone, false),
		asm.Vec(isa.VMVXS, rd, v(), isa.RegNone, false))
}

// segVectorMasked builds a data-dependent mask in v0 with vmseq and runs a
// masked ALU op plus a masked unit-stride store through it: masked-off
// elements must stay undisturbed in both the destination register and the
// stored-to memory in both models.
func (g *gen) segVectorMasked() {
	v0, v1, v2, v3 := isa.V(0), isa.V(1), isa.V(2), isa.V(3)
	rd := g.reg()
	g.dest(rd)
	one := g.reg()
	ldOff := g.rng.Intn(256) &^ 3
	stOff := 1024 + g.rng.Intn(bufBytes/2-64)&^63
	g.emit(
		asm.Li(xTmp, int64(1+g.rng.Intn(16))),
		vsetvli(rd),
		rri(isa.ADDI, xTmp, operand(xBuf), int64(ldOff)),
		asm.VLoad(isa.VLE, v1, xTmp, isa.RegNone),
		asm.Li(one, 1),
		rr(isa.VMVVX, v2, operand(one)),
		asm.Vec(isa.VANDVV, v3, v1, v2, false),
		asm.Vec(isa.VMSEQVV, v0, v3, v2, false), // mask: elements of v1 with bit 0 set
		asm.Vec(g.vvOp(), v3, v1, v1, true),
		rri(isa.ADDI, xTmp, operand(xBuf), int64(stOff)),
		asm.VStore(isa.VSE, v3, xTmp, isa.RegNone, true),
		asm.Vec(isa.VMVXS, rd, v3, isa.RegNone, false))
}

// segVectorStrided loads and stores with a constant byte stride, including
// stride 0 (every element hits the same address; ascending element order
// makes the final value deterministic in both models).
func (g *gen) segVectorStrided() {
	v1, v2 := isa.V(1), isa.V(2)
	rd := g.reg()
	g.dest(rd)
	sreg := g.reg()
	stride := 4 * g.rng.Intn(15) // 0..56 bytes
	stOff := 1024 + g.rng.Intn(256)&^7
	g.emit(
		asm.Li(xTmp, int64(1+g.rng.Intn(8))),
		vsetvli(rd),
		asm.Li(sreg, int64(stride)),
		asm.VLoad(isa.VLSE, v1, xBuf, sreg),
		asm.Vec(g.vvOp(), v2, v1, v1, false),
		rri(isa.ADDI, xTmp, operand(xBuf), int64(stOff)),
		asm.VStore(isa.VSSE, v2, xTmp, sreg, false),
		asm.Vec(isa.VMVXS, rd, v2, isa.RegNone, false))
}

// segVectorIndexed derives a bounded index vector from buffer data (each
// offset masked to an 8-byte-aligned value <= 504) and gathers/scatters
// through it; half the scatters are additionally masked through v0.
func (g *gen) segVectorIndexed() {
	v0, v1, v2, v3, v4 := isa.V(0), isa.V(1), isa.V(2), isa.V(3), isa.V(4)
	rd := g.reg()
	g.dest(rd)
	mreg := g.reg()
	ldOff := g.rng.Intn(512) &^ 3
	g.emit(
		asm.Li(xTmp, int64(1+g.rng.Intn(8))),
		vsetvli(rd),
		rri(isa.ADDI, xTmp, operand(xBuf), int64(ldOff)),
		asm.VLoad(isa.VLE, v2, xTmp, isa.RegNone),
		asm.Li(mreg, 0x1F8),
		rr(isa.VMVVX, v3, operand(mreg)),
		asm.Vec(isa.VANDVV, v2, v2, v3, false), // offsets: 8-aligned, 0..504
		asm.VLoad(isa.VLXEI, v1, xBuf, v2),
		asm.Vec(isa.VADDVV, v1, v1, v2, false),
		rri(isa.ADDI, xTmp, operand(xBuf), 1024))
	if g.rng.Intn(2) == 0 {
		g.emit(
			asm.Li(mreg, 8),
			rr(isa.VMVVX, v3, operand(mreg)),
			asm.Vec(isa.VANDVV, v4, v2, v3, false),
			asm.Vec(isa.VMSEQVV, v0, v4, v3, false), // mask: offsets with bit 3 set
			asm.VStore(isa.VSXEI, v1, xTmp, v2, true))
	} else {
		g.emit(asm.VStore(isa.VSXEI, v1, xTmp, v2, false))
	}
	g.emit(asm.Vec(isa.VMVXS, rd, v1, isa.RegNone, false))
}

// mstatusMIE is "op x0, mstatus, 8": csrrci closes the interrupt window,
// csrrsi reopens it.
func mstatusMIE(op isa.Op) asm.Item { return asm.CSRI(op, isa.Zero, isa.CSRMstatus, 8) }

// segIRQ only appears in interrupt-injection mode: WFI parks (the schedule's
// force-arm wakes it), mstatus.MIE toggles open windows where an armed source
// must stay pending and deliver at the exact commit the window reopens, mip
// and mie reads observe the WARL windows and the source-driven bits, and an
// mtimecmp-shaped store exercises the CLINT doorbell address (plain memory in
// the single-hart checker profile, compared like any other line). Segments
// only ever SET mie bits, so a parked hart is always wakeable.
func (g *gen) segIRQ() {
	rd := g.reg()
	switch g.rng.Intn(8) {
	case 0, 1: // park; delivery or wake-without-take follows
		g.emit(asm.Sys(isa.WFI))
	case 2: // interrupts-off window: delivery defers to the closing csrrsi
		g.emit(mstatusMIE(isa.CSRRCI))
		for i := 0; i < 1+g.rng.Intn(3); i++ {
			g.emit(g.aluInst())
		}
		g.emit(mstatusMIE(isa.CSRRSI))
	case 3: // nested toggle with a WFI inside: pending-but-disabled unparks
		g.emit(mstatusMIE(isa.CSRRCI), g.aluInst(), asm.Sys(isa.WFI), mstatusMIE(isa.CSRRSI))
	case 4: // observe the live mip bits and the interrupt enables
		g.dest(rd)
		g.emit(asm.CSRR(rd, []uint16{isa.CSRMip, isa.CSRMie, isa.CSRMideleg, isa.CSRMstatus}[g.rng.Intn(4)]))
	case 5: // WARL probe: set every bit, read back the writable window
		g.dest(rd)
		t := g.reg()
		num := []uint16{isa.CSRMie, isa.CSRMideleg}[g.rng.Intn(2)]
		g.emit(asm.Li(t, -1), csr(isa.CSRRS, rd, num, operand(t)))
	default: // mtimecmp-style doorbell write
		g.emit(asm.Li(xTmp, 0x02004000), // CLINT mtimecmp
			store(isa.SD, g.src(), 0, xTmp))
	}
}

// segFFlags provokes IEEE exception flags and reads them straight back:
// the fflags/frm/fcsr windows and mstatus.FS dirtying are the conformance
// surface the checker compares per commit.
func (g *gen) segFFlags() {
	rd := g.reg()
	g.dest(rd)
	t := g.reg()
	f := g.freg()
	// seed puts a chosen bit pattern in f.
	seed := func(bits int64) {
		g.emit(asm.Li(t, bits), rr(isa.FMVDX, f, operand(t)))
	}
	none := isa.RegNone
	switch g.rng.Intn(6) {
	case 0: // a random divide is almost always inexact, sometimes much worse
		g.emit(asm.FP(isa.FDIVD, g.freg(), g.freg(), g.freg(), none), asm.CSRR(rd, isa.CSRFflags))
	case 1: // invalid: signaling NaN through an add
		seed(0x7FF0000000000001)
		g.emit(asm.FP(isa.FADDD, g.freg(), f, g.freg(), none), asm.CSRR(rd, isa.CSRFflags))
	case 2: // overflow: square the largest finite exponent
		seed(0x7FE0000000000000)
		g.emit(asm.FP(isa.FMULD, g.freg(), f, f, none), asm.CSRR(rd, isa.CSRFcsr))
	case 3: // underflow: square the smallest normal
		seed(0x0010000000000000)
		g.emit(asm.FP(isa.FMULD, g.freg(), f, f, none), asm.CSRR(rd, isa.CSRFflags))
	case 4: // clear, accrue, read back
		g.emit(asm.CSRI(isa.CSRRWI, isa.Zero, isa.CSRFflags, 0),
			asm.FP(isa.FSQRTD, g.freg(), g.freg(), none, none),
			asm.CSRR(rd, isa.CSRFflags))
	default: // frm write (non-functional rounding, but state must match)
		g.emit(asm.CSRI(isa.CSRRWI, rd, isa.CSRFrm, int64(g.rng.Intn(8))), asm.CSRR(t, isa.CSRFcsr))
	}
}

// segAliasLRSC stresses the VA-vs-PA reservation granule: a reservation
// taken through one virtual window must interact with accesses through the
// other exactly as the shared physical line dictates.
func (g *gen) segAliasLRSC() {
	d, align := g.width()
	off := g.rng.Intn(bufBytes-8) &^ (align - 1)
	t := g.reg()
	if g.rng.Intn(2) == 0 {
		// LR through the alias, SC through the identity VA: the reservation
		// is physical, so the SC must succeed in both models.
		g.emit(
			rri(isa.ADDI, xTmp, operand(xBuf), int64(off)),
			asm.Li(t, pagedOffset),
			rrr(isa.ADD, t, operand(t), operand(xTmp)),
			amo(lrOps[d], g.reg(), noOperand, t),
			amo(scOps[d], g.reg(), g.src(), xTmp))
		return
	}
	// LR through the identity VA, intervening store through the alias —
	// same physical line kills the reservation, a different line keeps it.
	var aliasOff int
	if g.rng.Intn(3) == 0 {
		aliasOff = (off + 64 + g.rng.Intn(bufBytes-128)) % (bufBytes - 8) &^ 7
	} else {
		aliasOff = off&^63 + g.rng.Intn(64)&^7
	}
	g.emit(
		rri(isa.ADDI, xTmp, operand(xBuf), int64(off)),
		amo(lrOps[d], g.reg(), noOperand, xTmp),
		asm.Li(t, pagedOffset),
		rrr(isa.ADD, t, operand(t), operand(xBuf)),
		store(isa.SD, g.src(), aliasOff, t),
		amo(scOps[d], g.reg(), g.src(), xTmp))
}

// segAliasStore writes through one window and reads through the other: both
// models must observe the store at the shared physical address.
func (g *gen) segAliasStore() {
	rd := g.reg()
	g.dest(rd)
	t := g.reg()
	off := g.rng.Intn(bufBytes-8) &^ 7
	g.emit(
		asm.Li(t, pagedOffset),
		rrr(isa.ADD, t, operand(t), operand(xBuf)),
		store(isa.SD, g.src(), off, t),
		asm.Load(isa.LD, rd, off, xBuf))
}

// segPageCross accesses a doubleword straddling a 4K page boundary through
// the alias window (the pages map physically contiguous memory, so the
// access is legal in both models). The boundary at the stack base is used
// because the bytes on either side are plain data in every profile.
func (g *gen) segPageCross() {
	rd := g.reg()
	g.dest(rd)
	t := g.reg()
	addr := pagedOffset + stackBase - uint64(1+g.rng.Intn(7))
	g.emit(asm.Li(t, int64(addr)))
	if g.rng.Intn(2) == 0 {
		g.emit(store(isa.SD, g.src(), 0, t))
	}
	g.emit(asm.Load(isa.LD, rd, 0, t))
}

// segPageFault runs off the end of the alias window into the first unmapped
// page. With every exception delegated and stvec=0, both models must latch
// the same scause/stval/sepc and halt with -(16+cause).
func (g *gen) segPageFault() {
	t := g.reg()
	addr := pagedOffset + pagedPhysSize + uint64(g.rng.Intn(4096)&^7)
	g.emit(asm.Li(t, int64(addr)))
	if g.rng.Intn(2) == 0 {
		g.emit(asm.Load(isa.LD, g.reg(), 0, t))
	} else {
		g.emit(store(isa.SD, g.src(), 0, t))
	}
}
