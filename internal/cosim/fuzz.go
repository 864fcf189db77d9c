package cosim

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

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
// Register conventions inside generated programs:
//
//	x8  (s0)  scratch-buffer base, never written after the prologue
//	x29 (t4)  loop counter / address temporary, never in the random pool
//	x17 (a7)  syscall number, written only by the exit epilogue
//	x2  (sp)  stack pointer, used only as a base for sp-relative accesses
//
// Everything else (incl. the FP file) is fair game.

// gpPool is the set of integer registers the generator reads and writes.
var gpPool = []int{1, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16,
	18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 30, 31}

const (
	bufBytes = 2048
	fpRegs   = 16 // f0..f15 participate
)

// FuzzResult is the outcome of one seeded fuzz iteration.
type FuzzResult struct {
	Seed         int64
	Err          error // generation/assembly failure: a fuzzer bug, not a model bug
	Diverged     bool
	Result       Result // run of the full generated program
	Source       string // full generated program
	Shrunk       string // minimized reproducer (set when Diverged)
	ShrunkResult Result

	// TimedOut marks a seed killed by the per-seed watchdog (after one retry
	// at twice the budget); Retried marks a seed that needed the retry but
	// finished within the doubled budget.
	TimedOut bool
	Retried  bool
}

// Fuzz generates the program for seed, runs it in lock-step, and minimizes
// any divergence. nSegs controls program size (0 means 40 segments).
func Fuzz(seed int64, nSegs int, opts Options) FuzzResult {
	return FuzzContext(context.Background(), seed, nSegs, opts)
}

// FuzzContext is Fuzz with cancellation: an expired deadline marks the result
// TimedOut instead of blocking on a pathological seed.
func FuzzContext(ctx context.Context, seed int64, nSegs int, opts Options) FuzzResult {
	if nSegs == 0 {
		nSegs = 40
	}
	fr := FuzzResult{Seed: seed}
	modes := opts.modes()
	if err := modes.Validate(); err != nil {
		fr.Err = fmt.Errorf("seed %d: %w", seed, err)
		return fr
	}
	harts := opts.effectiveHarts()
	prog := generate(seed, nSegs, modes, harts)
	fr.Source = prog.render(nil)
	if modes.IRQ {
		if harts > 1 {
			opts.IRQSchedules = prog.irqs
		} else {
			opts.IRQSchedule = prog.irq
		}
	}
	p, err := asm.Assemble(fr.Source, asm.Options{Base: 0x1000, Compress: true})
	if err != nil {
		fr.Err = fmt.Errorf("seed %d: assemble: %w", seed, err)
		return fr
	}
	fr.Result = RunContext(ctx, p, opts)
	if fr.Result.TimedOut {
		fr.TimedOut = true
		return fr
	}
	if !fr.Result.Diverged {
		return fr
	}
	fr.Diverged = true
	fr.Shrunk, fr.ShrunkResult = shrink(prog, opts)
	return fr
}

// GenerateSource returns the deterministic fuzz program for a seed together
// with its interrupt schedule (empty unless opts.Modes.IRQ). Fault-injection
// campaigns use it to rebuild the exact program a seed denotes.
func GenerateSource(seed int64, nSegs int, opts Options) (string, []IRQEvent) {
	if nSegs == 0 {
		nSegs = 40
	}
	prog := generate(seed, nSegs, opts.modes(), opts.effectiveHarts())
	return prog.render(nil), prog.irq
}

// program is a generated test program in shrinkable form: a fixed prologue
// and epilogue around independent segments that can be dropped one by one.
type program struct {
	inits   []string     // register initialization (kept through shrinking)
	segs    [][]string   // independent hazard segments
	trapEnd bool         // end with ebreak instead of the exit ecall
	data    []string     // scratch-buffer contents
	irq     []IRQEvent   // hart 0's interrupt schedule (IRQ mode); implies the handler
	irqs    [][]IRQEvent // per-hart schedules (IRQ mode; irqs[0] == irq)
	smp     bool         // SPMD multi-hart profile; implies the handler
}

// handler reports whether the program installs the interrupt handler: every
// scheduled run needs it for delivery, and every SMP run needs it so MSIP
// IPIs can be taken (and the level-triggered doorbell cleared).
func (p *program) handler() bool { return p.smp || len(p.irq) > 0 }

// render emits assembly source with the masked-out segments removed
// (mask==nil keeps everything).
func (p *program) render(mask []bool) string {
	var b strings.Builder
	b.WriteString("_start:\n")
	b.WriteString("    la x8, buf\n")
	if p.handler() {
		// Install the handler and enable all three machine sources. Only x29
		// (never in the random pool) is clobbered, before its first use.
		b.WriteString("    la x29, irq_handler\n")
		b.WriteString("    csrw mtvec, x29\n")
		b.WriteString("    li x29, 2184\n") // 0x888: MSIE|MTIE|MEIE
		b.WriteString("    csrw mie, x29\n")
		b.WriteString("    csrrsi x0, mstatus, 8\n") // mstatus.MIE
	}
	for _, l := range p.inits {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	for i, seg := range p.segs {
		if mask != nil && !mask[i] {
			continue
		}
		for _, l := range seg {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	if p.trapEnd {
		b.WriteString("    ebreak\n")
	} else {
		b.WriteString("    li x17, 93\n    li x10, 0\n    ecall\n")
	}
	if p.handler() {
		// The handler is transparent up to its trace in the buffer tail: x29
		// is preserved through mscratch, mcause/mepc and a delivery counter
		// are logged where random stores may also land (both models see the
		// same interleaving, so cross-traffic is welcome), and mret resumes.
		// Not shrinkable: delivery needs it as long as the schedule exists.
		// 4-byte alignment matters: mtvec's two mode bits are masked off on
		// delivery, so a 2-byte-aligned handler (possible under compression)
		// would vector into the middle of the preceding instruction.
		b.WriteString(".align 2\nirq_handler:\n")
		b.WriteString("    csrw mscratch, x29\n")
		if p.smp {
			b.WriteString("    csrw sscratch, x30\n")
		}
		b.WriteString("    csrr x29, mcause\n")
		b.WriteString("    sd x29, 2024(x8)\n")
		b.WriteString("    csrr x29, mepc\n")
		b.WriteString("    sd x29, 2032(x8)\n")
		b.WriteString("    ld x29, 2040(x8)\n")
		b.WriteString("    addi x29, x29, 1\n")
		b.WriteString("    sd x29, 2040(x8)\n")
		if p.smp {
			// Drop this hart's MSIP doorbell: the CLINT source is level-
			// triggered, so an un-cleared IPI would re-deliver forever after
			// mret. x30 rides through sscratch (x29 is already in mscratch);
			// both models run the handler, so the sscratch clobber compares
			// clean like any other architectural effect.
			b.WriteString("    csrr x29, mhartid\n")
			b.WriteString("    slli x29, x29, 2\n")
			b.WriteString("    li x30, 33554432\n") // 0x02000000: CLINT msip base
			b.WriteString("    add x29, x29, x30\n")
			b.WriteString("    sw x0, 0(x29)\n")
			b.WriteString("    csrr x30, sscratch\n")
		}
		b.WriteString("    csrr x29, mscratch\n")
		b.WriteString("    mret\n")
	}
	b.WriteString(".align 6\nbuf:\n")
	for _, l := range p.data {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

type gen struct {
	rng      *rand.Rand
	label    int
	lastDest string // RAW-chain bias: last integer destination written
	paged    bool   // S-mode/SV39 profile: alias-window segments enabled
	irq      bool   // interrupt-injection profile: WFI/MIE-toggle segments
	smp      bool   // SPMD multi-hart profile: cross-hart contention segments
	harts    int    // hart count the SMP segments target (IPI wrap-around)
}

func (g *gen) reg() string  { return fmt.Sprintf("x%d", gpPool[g.rng.Intn(len(gpPool))]) }
func (g *gen) freg() string { return fmt.Sprintf("f%d", g.rng.Intn(fpRegs)) }

// src picks a source operand: usually a pool register, sometimes x0 and
// sometimes the previous destination (RAW chain).
func (g *gen) src() string {
	r := g.rng.Intn(100)
	switch {
	case r < 12:
		return "x0"
	case r < 55 && g.lastDest != "":
		return g.lastDest
	}
	return g.reg()
}

func (g *gen) newLabel(stem string) string {
	g.label++
	return fmt.Sprintf("%s_%d", stem, g.label)
}

func generate(seed int64, nSegs int, modes Modes, harts int) *program {
	if harts < 1 {
		harts = 1
	}
	g := &gen{rng: rand.New(rand.NewSource(seed)), paged: modes.Paged, irq: modes.IRQ,
		smp: modes.SMP, harts: harts}
	// trapEnd is incompatible with an installed handler (ebreak would vector
	// into it and mret back onto itself forever), so IRQ and SMP programs
	// always end on the exit ecall.
	p := &program{smp: modes.SMP, trapEnd: !modes.IRQ && !modes.SMP && g.rng.Intn(10) == 0}
	for _, r := range gpPool {
		p.inits = append(p.inits, fmt.Sprintf("    li x%d, %d", r, int64(g.rng.Uint64())))
	}
	for f := 0; f < fpRegs; f++ {
		p.inits = append(p.inits, fmt.Sprintf("    fmv.d.x f%d, x%d", f, gpPool[g.rng.Intn(len(gpPool))]))
	}
	for i := 0; i < nSegs; i++ {
		p.segs = append(p.segs, g.segment())
	}
	for i := 0; i < bufBytes/8; i += 4 {
		p.data = append(p.data, fmt.Sprintf("    .dword %d, %d, %d, %d",
			int64(g.rng.Uint64()), int64(g.rng.Uint64()), int64(g.rng.Uint64()), int64(g.rng.Uint64())))
	}
	if modes.IRQ {
		// One schedule per hart, drawn in hart order from the same stream
		// (hart 0's draw matches the single-hart stream exactly).
		p.irqs = make([][]IRQEvent, harts)
		for h := 0; h < harts; h++ {
			p.irqs[h] = g.schedule(nSegs)
		}
		p.irq = p.irqs[0]
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

// segment emits one self-contained hazard segment. The SMP profile swaps the
// segments that are unsound across harts for scalar equivalents: vector
// stores write memory at execute time (a remote hart would see them out of
// commit order), and cross-hart self-modifying code has no defined coherence
// point in the model.
func (g *gen) segment() []string {
	if g.smp && g.rng.Intn(3) == 0 {
		return g.segSMP()
	}
	if g.paged && g.rng.Intn(12) == 0 {
		return g.segPaged()
	}
	if g.irq && g.rng.Intn(8) == 0 {
		return g.segIRQ()
	}
	switch r := g.rng.Intn(100); {
	case r < 28:
		return g.segALU()
	case r < 44:
		return g.segMem()
	case r < 52:
		return g.segBranch()
	case r < 59:
		return g.segLoop()
	case r < 66:
		return g.segLRSC()
	case r < 72:
		return g.segAMO()
	case r < 79:
		return g.segFPU()
	case r < 84:
		return g.segCSR()
	case r < 89:
		return g.segFFlags()
	case r < 93:
		return g.segCustom()
	case r < 96:
		if g.smp {
			return g.segMem()
		}
		return g.segSMC()
	default:
		if g.smp {
			return g.segALU()
		}
		return g.segVector()
	}
}

var aluRR = []string{"add", "sub", "sll", "srl", "sra", "slt", "sltu", "xor", "or", "and",
	"addw", "subw", "sllw", "srlw", "sraw",
	"mul", "mulh", "mulhsu", "mulhu", "mulw",
	"div", "divu", "rem", "remu", "divw", "divuw", "remw", "remuw"}
var aluRI = []string{"addi", "slti", "sltiu", "xori", "ori", "andi", "addiw"}

// aluInst emits one random integer ALU instruction.
func (g *gen) aluInst() string {
	rd := g.reg()
	defer func() { g.lastDest = rd }()
	switch g.rng.Intn(10) {
	case 0, 1, 2:
		return fmt.Sprintf("    %s %s, %s, %d", aluRI[g.rng.Intn(len(aluRI))], rd, g.src(), g.rng.Intn(4096)-2048)
	case 3:
		return fmt.Sprintf("    lui %s, %d", rd, g.rng.Intn(1<<20))
	case 4:
		sh := []string{"slli", "srli", "srai"}[g.rng.Intn(3)]
		return fmt.Sprintf("    %s %s, %s, %d", sh, rd, g.src(), g.rng.Intn(64))
	case 5:
		sh := []string{"slliw", "srliw", "sraiw"}[g.rng.Intn(3)]
		return fmt.Sprintf("    %s %s, %s, %d", sh, rd, g.src(), g.rng.Intn(32))
	default:
		return fmt.Sprintf("    %s %s, %s, %s", aluRR[g.rng.Intn(len(aluRR))], rd, g.src(), g.src())
	}
}

func (g *gen) segALU() []string {
	n := 1 + g.rng.Intn(4)
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, g.aluInst())
	}
	return out
}

// segMem mixes scalar loads and stores over the scratch buffer (misaligned
// and line-crossing offsets included) and sp-relative accesses that compress
// to the RVC stack forms: c.ldsp/c.sdsp and the FP spills c.fldsp/c.fsdsp.
func (g *gen) segMem() []string {
	var out []string
	n := 2 + g.rng.Intn(4)
	for i := 0; i < n; i++ {
		if g.rng.Intn(10) < 2 { // sp-relative (RVC stack forms)
			switch g.rng.Intn(4) {
			case 0:
				out = append(out, fmt.Sprintf("    sd %s, %d(x2)", g.reg(), g.rng.Intn(32)*8))
			case 1:
				rd := g.reg()
				out = append(out, fmt.Sprintf("    ld %s, %d(x2)", rd, g.rng.Intn(32)*8))
				g.lastDest = rd
			case 2: // FP spill: the full 9-bit c.fsdsp range (0..504)
				out = append(out, fmt.Sprintf("    fsd %s, %d(x2)", g.freg(), g.rng.Intn(64)*8))
			default: // FP reload via c.fldsp
				out = append(out, fmt.Sprintf("    fld %s, %d(x2)", g.freg(), g.rng.Intn(64)*8))
			}
			continue
		}
		size := []int{1, 2, 4, 8}[g.rng.Intn(4)]
		off := g.rng.Intn(bufBytes - 8)
		if g.rng.Intn(10) < 6 { // mostly aligned, often not
			off &^= size - 1
		}
		if g.rng.Intn(2) == 0 {
			st := map[int]string{1: "sb", 2: "sh", 4: "sw", 8: "sd"}[size]
			if size >= 4 && g.rng.Intn(6) == 0 {
				st = map[int]string{4: "fsw", 8: "fsd"}[size]
				out = append(out, fmt.Sprintf("    %s %s, %d(x8)", st, g.freg(), off))
				continue
			}
			out = append(out, fmt.Sprintf("    %s %s, %d(x8)", st, g.src(), off))
		} else {
			lds := map[int][]string{1: {"lb", "lbu"}, 2: {"lh", "lhu"}, 4: {"lw", "lwu"}, 8: {"ld"}}[size]
			ld := lds[g.rng.Intn(len(lds))]
			if size >= 4 && g.rng.Intn(6) == 0 {
				ld = map[int]string{4: "flw", 8: "fld"}[size]
				out = append(out, fmt.Sprintf("    %s %s, %d(x8)", ld, g.freg(), off))
				continue
			}
			rd := g.reg()
			out = append(out, fmt.Sprintf("    %s %s, %d(x8)", ld, rd, off))
			g.lastDest = rd
		}
	}
	return out
}

var branchOps = []string{"beq", "bne", "blt", "bge", "bltu", "bgeu"}

// segBranch emits a forward conditional branch over a short block; the
// target lands on whatever alignment compression produces, so branches into
// compressed regions happen naturally.
func (g *gen) segBranch() []string {
	l := g.newLabel("skip")
	a, b := g.src(), g.src()
	if g.rng.Intn(5) == 0 {
		a = "x0"
	}
	out := []string{fmt.Sprintf("    %s %s, %s, %s", branchOps[g.rng.Intn(len(branchOps))], a, b, l)}
	for i := 0; i < 1+g.rng.Intn(3); i++ {
		out = append(out, g.aluInst())
	}
	return append(out, l+":")
}

// segLoop emits a counted loop on the dedicated counter (loop-buffer food).
func (g *gen) segLoop() []string {
	l := g.newLabel("loop")
	out := []string{fmt.Sprintf("    li x29, %d", 2+g.rng.Intn(5)), l + ":"}
	for i := 0; i < 1+g.rng.Intn(3); i++ {
		out = append(out, g.aluInst())
	}
	return append(out, "    addi x29, x29, -1", fmt.Sprintf("    bnez x29, %s", l))
}

// segLRSC emits an LR/SC pair over the buffer, often with an intervening
// store to the same or a different cache line, and sometimes an orphan SC.
func (g *gen) segLRSC() []string {
	w := g.rng.Intn(2) == 0 // word vs double
	suffix, align := ".d", 8
	if w {
		suffix, align = ".w", 4
	}
	off := g.rng.Intn(bufBytes-8) &^ (align - 1)
	out := []string{fmt.Sprintf("    addi x29, x8, %d", off)}
	if g.rng.Intn(6) != 0 { // usually a real LR
		out = append(out, fmt.Sprintf("    lr%s %s, (x29)", suffix, g.reg()))
	}
	switch g.rng.Intn(3) {
	case 0: // intervening store to the same line
		same := off&^63 + g.rng.Intn(64)&^7
		out = append(out, fmt.Sprintf("    sd %s, %d(x8)", g.src(), same))
	case 1: // intervening store to a different line
		other := (off + 64 + g.rng.Intn(bufBytes-128)) % (bufBytes - 8) &^ 7
		out = append(out, fmt.Sprintf("    sd %s, %d(x8)", g.src(), other))
	}
	out = append(out, fmt.Sprintf("    sc%s %s, %s, (x29)", suffix, g.reg(), g.src()))
	return out
}

var amoOps = []string{"amoswap", "amoadd", "amoand", "amoor", "amoxor", "amomax", "amomin"}

func (g *gen) segAMO() []string {
	w := g.rng.Intn(2) == 0
	suffix, align := ".d", 8
	if w {
		suffix, align = ".w", 4
	}
	off := g.rng.Intn(bufBytes-8) &^ (align - 1)
	rd := g.reg()
	g.lastDest = rd
	return []string{
		fmt.Sprintf("    addi x29, x8, %d", off),
		fmt.Sprintf("    %s%s %s, %s, (x29)", amoOps[g.rng.Intn(len(amoOps))], suffix, rd, g.src()),
	}
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
func (g *gen) distinct(n int) []string {
	idx := g.rng.Perm(len(gpPool))[:n]
	out := make([]string, n)
	for i, j := range idx {
		out[i] = fmt.Sprintf("x%d", gpPool[j])
	}
	return out
}

// segSMP picks one cross-hart contention segment.
func (g *gen) segSMP() []string {
	switch g.rng.Intn(4) {
	case 0:
		return g.segSMPLRSC()
	case 1:
		return g.segSMPAMO()
	case 2:
		return g.segSMPProdCons()
	default:
		return g.segSMPIPI()
	}
}

// segSMPLRSC is an LR/SC retry loop on the shared contention line: every hart
// ping-pongs ownership of one cache line, so SC failures, reservation kills by
// remote stores and the resulting retries are all exercised. The retry count
// is bounded so a pathological interleaving cannot livelock the program.
func (g *gen) segSMPLRSC() []string {
	w := g.rng.Intn(2) == 0
	suffix, align := ".d", 8
	if w {
		suffix, align = ".w", 4
	}
	regs := g.distinct(3)
	rd, ok, cnt := regs[0], regs[1], regs[2]
	off := smpLine + g.rng.Intn(64)&^(align-1)
	retry := g.newLabel("smp_retry")
	done := g.newLabel("smp_done")
	g.lastDest = rd
	return []string{
		fmt.Sprintf("    li %s, %d", cnt, 2+g.rng.Intn(4)),
		fmt.Sprintf("    addi x29, x8, %d", off),
		retry + ":",
		fmt.Sprintf("    lr%s %s, (x29)", suffix, rd),
		fmt.Sprintf("    addi %s, %s, 1", rd, rd),
		fmt.Sprintf("    sc%s %s, %s, (x29)", suffix, ok, rd),
		fmt.Sprintf("    beqz %s, %s", ok, done),
		fmt.Sprintf("    addi %s, %s, -1", cnt, cnt),
		fmt.Sprintf("    bnez %s, %s", cnt, retry),
		done + ":",
	}
}

// segSMPAMO hammers the shared contention line with one atomic op: AMOs from
// different harts to the same line force exclusive-ownership migration at
// every retirement.
func (g *gen) segSMPAMO() []string {
	w := g.rng.Intn(2) == 0
	suffix, align := ".d", 8
	if w {
		suffix, align = ".w", 4
	}
	off := smpLine + g.rng.Intn(64)&^(align-1)
	rd := g.reg()
	g.lastDest = rd
	return []string{
		fmt.Sprintf("    addi x29, x8, %d", off),
		fmt.Sprintf("    %s%s %s, %s, (x29)", amoOps[g.rng.Intn(len(amoOps))], suffix, rd, g.src()),
	}
}

// segSMPProdCons is a fence-ordered producer/consumer handshake: hart 0
// publishes a value then raises a non-zero flag behind a fence; every other
// hart polls the flag ONCE (no spin — lock-step pacing makes arrival
// unpredictable and a spin could livelock) and, if raised, fences and reads
// the data back. Both worlds observe the same memory at the same commit
// boundaries, so the loaded pair must match — a reordered store pair in the
// pipeline world diverges here.
func (g *gen) segSMPProdCons() []string {
	regs := g.distinct(3)
	t, d, f := regs[0], regs[1], regs[2]
	cons := g.newLabel("smp_cons")
	done := g.newLabel("smp_pc_done")
	g.lastDest = d
	return []string{
		fmt.Sprintf("    csrr %s, mhartid", t),
		fmt.Sprintf("    bnez %s, %s", t, cons),
		fmt.Sprintf("    li %s, %d", d, int64(g.rng.Uint64())),
		fmt.Sprintf("    sd %s, %d(x8)", d, smpDataSlot),
		"    fence",
		fmt.Sprintf("    li %s, %d", f, 1+g.rng.Intn(255)),
		fmt.Sprintf("    sd %s, %d(x8)", f, smpFlagSlot),
		fmt.Sprintf("    beq x0, x0, %s", done),
		cons + ":",
		fmt.Sprintf("    ld %s, %d(x8)", f, smpFlagSlot),
		fmt.Sprintf("    beqz %s, %s", f, done),
		"    fence",
		fmt.Sprintf("    ld %s, %d(x8)", d, smpDataSlot),
		done + ":",
	}
}

// segSMPIPI sends a machine-software IPI by storing to a CLINT msip doorbell:
// the target is (mhartid + hop) mod harts, so harts ring each other and
// sometimes themselves. The handler (render installs it for every SMP
// program) clears the doorbell, so delivery is level-triggered but finite.
func (g *gen) segSMPIPI() []string {
	regs := g.distinct(2)
	t, v := regs[0], regs[1]
	hop := g.rng.Intn(g.harts)
	return []string{
		"    csrr x29, mhartid",
		fmt.Sprintf("    addi x29, x29, %d", hop),
		fmt.Sprintf("    li %s, %d", t, g.harts),
		fmt.Sprintf("    remu x29, x29, %s", t),
		"    slli x29, x29, 2",
		fmt.Sprintf("    li %s, 33554432", t), // CLINT msip base 0x0200_0000
		fmt.Sprintf("    add x29, x29, %s", t),
		fmt.Sprintf("    li %s, 1", v),
		fmt.Sprintf("    sw %s, 0(x29)", v),
	}
}

var fpu2 = []string{"fadd", "fsub", "fmul", "fdiv", "fmin", "fmax", "fsgnj", "fsgnjn", "fsgnjx"}
var fcmp = []string{"feq", "flt", "fle"}

func (g *gen) segFPU() []string {
	var out []string
	n := 1 + g.rng.Intn(3)
	for i := 0; i < n; i++ {
		sz := []string{".s", ".d"}[g.rng.Intn(2)]
		switch g.rng.Intn(8) {
		case 0:
			rd := g.reg()
			out = append(out, fmt.Sprintf("    %s%s %s, %s, %s", fcmp[g.rng.Intn(3)], sz, rd, g.freg(), g.freg()))
			g.lastDest = rd
		case 1:
			out = append(out, fmt.Sprintf("    fsqrt%s %s, %s", sz, g.freg(), g.freg()))
		case 2:
			out = append(out, fmt.Sprintf("    fmv.d.x %s, %s", g.freg(), g.src()))
		case 3:
			rd := g.reg()
			out = append(out, fmt.Sprintf("    fmv.x.d %s, %s", rd, g.freg()))
			g.lastDest = rd
		case 4:
			cv := []string{"fcvt.w.d", "fcvt.l.d", "fcvt.w.s", "fcvt.l.s"}[g.rng.Intn(4)]
			rd := g.reg()
			out = append(out, fmt.Sprintf("    %s %s, %s", cv, rd, g.freg()))
			g.lastDest = rd
		case 5:
			cv := []string{"fcvt.d.w", "fcvt.d.l", "fcvt.s.w", "fcvt.s.l", "fcvt.d.s", "fcvt.s.d"}[g.rng.Intn(6)]
			src := g.src()
			if cv == "fcvt.d.s" || cv == "fcvt.s.d" {
				src = g.freg()
			}
			out = append(out, fmt.Sprintf("    %s %s, %s", cv, g.freg(), src))
		case 6:
			fm := []string{"fmadd", "fmsub"}[g.rng.Intn(2)]
			out = append(out, fmt.Sprintf("    %s%s %s, %s, %s, %s", fm, sz, g.freg(), g.freg(), g.freg(), g.freg()))
		default:
			out = append(out, fmt.Sprintf("    %s%s %s, %s, %s", fpu2[g.rng.Intn(len(fpu2))], sz, g.freg(), g.freg(), g.freg()))
		}
	}
	return out
}

// segCSR reads and writes scratch CSRs and reads identity/counter CSRs,
// including the clock CSRs — the checker compares those modulo the clock by
// adopting the core's committed read value (see isCycleCSRRead).
func (g *gen) segCSR() []string {
	rd := g.reg()
	g.lastDest = rd
	switch g.rng.Intn(7) {
	case 0:
		return []string{fmt.Sprintf("    csrrw %s, mscratch, %s", rd, g.src())}
	case 1:
		return []string{fmt.Sprintf("    csrrs %s, mscratch, %s", rd, g.src())}
	case 2:
		return []string{fmt.Sprintf("    csrrc %s, sscratch, %s", rd, g.src())}
	case 3:
		op := []string{"csrrwi", "csrrsi", "csrrci"}[g.rng.Intn(3)]
		return []string{fmt.Sprintf("    %s %s, mscratch, %d", op, rd, g.rng.Intn(32))}
	case 4:
		csr := []string{"misa", "mhartid", "mscratch", "sscratch"}[g.rng.Intn(4)]
		return []string{fmt.Sprintf("    csrr %s, %s", rd, csr)}
	case 5: // clock CSRs: compared modulo the clock, then folded into state
		csr := []string{"cycle", "time", "mcycle"}[g.rng.Intn(3)]
		return []string{fmt.Sprintf("    csrr %s, %s", rd, csr)}
	default:
		return []string{fmt.Sprintf("    csrr %s, instret", rd)}
	}
}

// segCustom exercises the XT extension: address-generation fusion, bit
// manipulation, MACs, conditional moves and the indexed memory forms.
func (g *gen) segCustom() []string {
	rd := g.reg()
	g.lastDest = rd
	switch g.rng.Intn(8) {
	case 0:
		return []string{fmt.Sprintf("    addsl %s, %s, %s, %d", rd, g.src(), g.src(), g.rng.Intn(4))}
	case 1:
		lsb := g.rng.Intn(64)
		msb := lsb + g.rng.Intn(64-lsb)
		op := []string{"ext", "extu"}[g.rng.Intn(2)]
		return []string{fmt.Sprintf("    %s %s, %s, %d, %d", op, rd, g.src(), msb, lsb)}
	case 2:
		op := []string{"ff0", "ff1", "rev", "tstnbz"}[g.rng.Intn(4)]
		return []string{fmt.Sprintf("    %s %s, %s", op, rd, g.src())}
	case 3:
		return []string{fmt.Sprintf("    srri %s, %s, %d", rd, g.src(), g.rng.Intn(64))}
	case 4:
		op := []string{"mveqz", "mvnez"}[g.rng.Intn(2)]
		return []string{fmt.Sprintf("    %s %s, %s, %s", op, rd, g.src(), g.src())}
	case 5:
		op := []string{"mula", "muls", "mulah", "mulsh", "mulaw", "mulsw"}[g.rng.Intn(6)]
		return []string{fmt.Sprintf("    %s %s, %s, %s", op, rd, g.src(), g.src())}
	case 6: // indexed load: x29 holds a bounded index
		sh := g.rng.Intn(4)
		op := []string{"lrb", "lrh", "lrw", "lrd", "lurb", "lurh", "lurw"}[g.rng.Intn(7)]
		return []string{
			fmt.Sprintf("    andi x29, %s, %d", g.reg(), 127),
			fmt.Sprintf("    %s %s, x8, x29, %d", op, rd, sh),
		}
	default: // indexed store: data travels in rd
		sh := g.rng.Intn(4)
		op := []string{"srb", "srh", "srw", "srd"}[g.rng.Intn(4)]
		return []string{
			fmt.Sprintf("    andi x29, %s, %d", g.reg(), 127),
			fmt.Sprintf("    %s %s, x8, x29, %d", op, g.reg(), sh),
		}
	}
}

// segSMC patches the next instruction slot with a freshly encoded ALU
// instruction, then executes it after a fence.i. The placeholder is a
// 4-byte `xor x0, x0, x0`, which RVC compression cannot shrink, so the
// patch overwrites exactly one instruction.
func (g *gen) segSMC() []string {
	site := g.newLabel("patch")
	in := isa.NewInst(isa.Op(0))
	for {
		op, ok := isa.ParseOp(aluRR[g.rng.Intn(len(aluRR))])
		if !ok {
			continue
		}
		in = isa.NewInst(op)
		break
	}
	in.Rd = isa.X(gpPool[g.rng.Intn(len(gpPool))])
	in.Rs1 = isa.X(gpPool[g.rng.Intn(len(gpPool))])
	in.Rs2 = isa.X(gpPool[g.rng.Intn(len(gpPool))])
	raw, err := isa.Encode(in)
	if err != nil {
		return g.segALU() // unencodable pick: fall back, keep determinism
	}
	g.lastDest = in.Rd.String()
	carrier := g.reg()
	return []string{
		fmt.Sprintf("    la x29, %s", site),
		fmt.Sprintf("    li %s, %d", carrier, int64(raw)),
		fmt.Sprintf("    sw %s, 0(x29)", carrier),
		"    fence.i",
		site + ":",
		"    xor x0, x0, x0",
	}
}

var vecVVOps = []string{"vadd.vv", "vsub.vv", "vand.vv", "vor.vv", "vxor.vv", "vmul.vv", "vmin.vv", "vmax.vv"}

// segVector emits a small vector block: configure, load, compute, store,
// extract. Four variants cover unit-stride, masked, strided and indexed
// accesses; addresses stay inside the buffer (VL <= 16, SEW == 32 bits).
func (g *gen) segVector() []string {
	switch g.rng.Intn(4) {
	case 0:
		return g.segVectorUnit()
	case 1:
		return g.segVectorMasked()
	case 2:
		return g.segVectorStrided()
	default:
		return g.segVectorIndexed()
	}
}

func (g *gen) segVectorUnit() []string {
	v := func() string { return fmt.Sprintf("v%d", g.rng.Intn(4)) }
	rd := g.reg()
	g.lastDest = rd
	stOff := 1024 + g.rng.Intn(bufBytes/2-64)&^63
	return []string{
		fmt.Sprintf("    li x29, %d", 1+g.rng.Intn(16)),
		fmt.Sprintf("    vsetvli %s, x29, e32, m1", g.reg()),
		fmt.Sprintf("    vle.v %s, (x8)", v()),
		fmt.Sprintf("    %s %s, %s, %s", vecVVOps[g.rng.Intn(len(vecVVOps))], v(), v(), v()),
		fmt.Sprintf("    addi x29, x8, %d", stOff),
		fmt.Sprintf("    vse.v %s, (x29)", v()),
		fmt.Sprintf("    vmv.x.s %s, %s", rd, v()),
	}
}

// segVectorMasked builds a data-dependent mask in v0 with vmseq and runs a
// masked ALU op plus a masked unit-stride store through it: masked-off
// elements must stay undisturbed in both the destination register and the
// stored-to memory in both models.
func (g *gen) segVectorMasked() []string {
	rd := g.reg()
	g.lastDest = rd
	one := g.reg()
	ldOff := g.rng.Intn(256) &^ 3
	stOff := 1024 + g.rng.Intn(bufBytes/2-64)&^63
	return []string{
		fmt.Sprintf("    li x29, %d", 1+g.rng.Intn(16)),
		fmt.Sprintf("    vsetvli %s, x29, e32, m1", rd),
		fmt.Sprintf("    addi x29, x8, %d", ldOff),
		"    vle.v v1, (x29)",
		fmt.Sprintf("    li %s, 1", one),
		fmt.Sprintf("    vmv.v.x v2, %s", one),
		"    vand.vv v3, v1, v2",
		"    vmseq.vv v0, v3, v2", // mask: elements of v1 with bit 0 set
		fmt.Sprintf("    %s v3, v1, v1, v0.t", vecVVOps[g.rng.Intn(len(vecVVOps))]),
		fmt.Sprintf("    addi x29, x8, %d", stOff),
		"    vse.v v3, (x29), v0.t",
		fmt.Sprintf("    vmv.x.s %s, v3", rd),
	}
}

// segVectorStrided loads and stores with a constant byte stride, including
// stride 0 (every element hits the same address; ascending element order
// makes the final value deterministic in both models).
func (g *gen) segVectorStrided() []string {
	rd := g.reg()
	g.lastDest = rd
	sreg := g.reg()
	stride := 4 * g.rng.Intn(15) // 0..56 bytes
	stOff := 1024 + g.rng.Intn(256)&^7
	return []string{
		fmt.Sprintf("    li x29, %d", 1+g.rng.Intn(8)),
		fmt.Sprintf("    vsetvli %s, x29, e32, m1", rd),
		fmt.Sprintf("    li %s, %d", sreg, stride),
		fmt.Sprintf("    vlse.v v1, (x8), %s", sreg),
		fmt.Sprintf("    %s v2, v1, v1", vecVVOps[g.rng.Intn(len(vecVVOps))]),
		fmt.Sprintf("    addi x29, x8, %d", stOff),
		fmt.Sprintf("    vsse.v v2, (x29), %s", sreg),
		fmt.Sprintf("    vmv.x.s %s, v2", rd),
	}
}

// segVectorIndexed derives a bounded index vector from buffer data (each
// offset masked to an 8-byte-aligned value <= 504) and gathers/scatters
// through it; half the scatters are additionally masked through v0.
func (g *gen) segVectorIndexed() []string {
	rd := g.reg()
	g.lastDest = rd
	mreg := g.reg()
	ldOff := g.rng.Intn(512) &^ 3
	out := []string{
		fmt.Sprintf("    li x29, %d", 1+g.rng.Intn(8)),
		fmt.Sprintf("    vsetvli %s, x29, e32, m1", rd),
		fmt.Sprintf("    addi x29, x8, %d", ldOff),
		"    vle.v v2, (x29)",
		fmt.Sprintf("    li %s, %d", mreg, 0x1F8),
		fmt.Sprintf("    vmv.v.x v3, %s", mreg),
		"    vand.vv v2, v2, v3", // offsets: 8-aligned, 0..504
		"    vlxei.v v1, (x8), v2",
		"    vadd.vv v1, v1, v2",
		"    addi x29, x8, 1024",
	}
	if g.rng.Intn(2) == 0 {
		out = append(out,
			fmt.Sprintf("    li %s, 8", mreg),
			fmt.Sprintf("    vmv.v.x v3, %s", mreg),
			"    vand.vv v4, v2, v3",
			"    vmseq.vv v0, v4, v3", // mask: offsets with bit 3 set
			"    vsxei.v v1, (x29), v2, v0.t")
	} else {
		out = append(out, "    vsxei.v v1, (x29), v2")
	}
	return append(out, fmt.Sprintf("    vmv.x.s %s, v1", rd))
}

// segIRQ only appears in interrupt-injection mode: WFI parks (the schedule's
// force-arm wakes it), mstatus.MIE toggles open windows where an armed source
// must stay pending and deliver at the exact commit the window reopens, mip
// and mie reads observe the WARL windows and the source-driven bits, and an
// mtimecmp-shaped store exercises the CLINT doorbell address (plain memory in
// the single-hart checker profile, compared like any other line). Segments
// only ever SET mie bits, so a parked hart is always wakeable.
func (g *gen) segIRQ() []string {
	rd := g.reg()
	switch g.rng.Intn(8) {
	case 0, 1: // park; delivery or wake-without-take follows
		return []string{"    wfi"}
	case 2: // interrupts-off window: delivery defers to the closing csrrsi
		out := []string{"    csrrci x0, mstatus, 8"}
		for i := 0; i < 1+g.rng.Intn(3); i++ {
			out = append(out, g.aluInst())
		}
		return append(out, "    csrrsi x0, mstatus, 8")
	case 3: // nested toggle with a WFI inside: pending-but-disabled unparks
		return []string{
			"    csrrci x0, mstatus, 8",
			g.aluInst(),
			"    wfi",
			"    csrrsi x0, mstatus, 8",
		}
	case 4: // observe the live mip bits and the interrupt enables
		g.lastDest = rd
		csr := []string{"mip", "mie", "mideleg", "mstatus"}[g.rng.Intn(4)]
		return []string{fmt.Sprintf("    csrr %s, %s", rd, csr)}
	case 5: // WARL probe: set every bit, read back the writable window
		g.lastDest = rd
		t := g.reg()
		csr := []string{"mie", "mideleg"}[g.rng.Intn(2)]
		return []string{
			fmt.Sprintf("    li %s, -1", t),
			fmt.Sprintf("    csrrs %s, %s, %s", rd, csr, t),
		}
	default: // mtimecmp-style doorbell write
		return []string{
			"    li x29, 33570816", // 0x02004000: CLINT mtimecmp
			fmt.Sprintf("    sd %s, 0(x29)", g.src()),
		}
	}
}

// segFFlags provokes IEEE exception flags and reads them straight back:
// the fflags/frm/fcsr windows and mstatus.FS dirtying are the conformance
// surface the checker compares per commit.
func (g *gen) segFFlags() []string {
	rd := g.reg()
	g.lastDest = rd
	t := g.reg()
	f := g.freg()
	switch g.rng.Intn(6) {
	case 0: // a random divide is almost always inexact, sometimes much worse
		return []string{
			fmt.Sprintf("    fdiv.d %s, %s, %s", g.freg(), g.freg(), g.freg()),
			fmt.Sprintf("    csrr %s, fflags", rd),
		}
	case 1: // invalid: signaling NaN through an add
		return []string{
			fmt.Sprintf("    li %s, %d", t, int64(0x7FF0000000000001)),
			fmt.Sprintf("    fmv.d.x %s, %s", f, t),
			fmt.Sprintf("    fadd.d %s, %s, %s", g.freg(), f, g.freg()),
			fmt.Sprintf("    csrr %s, fflags", rd),
		}
	case 2: // overflow: square the largest finite exponent
		return []string{
			fmt.Sprintf("    li %s, %d", t, int64(0x7FE0000000000000)),
			fmt.Sprintf("    fmv.d.x %s, %s", f, t),
			fmt.Sprintf("    fmul.d %s, %s, %s", g.freg(), f, f),
			fmt.Sprintf("    csrr %s, fcsr", rd),
		}
	case 3: // underflow: square the smallest normal
		return []string{
			fmt.Sprintf("    li %s, %d", t, int64(0x0010000000000000)),
			fmt.Sprintf("    fmv.d.x %s, %s", f, t),
			fmt.Sprintf("    fmul.d %s, %s, %s", g.freg(), f, f),
			fmt.Sprintf("    csrr %s, fflags", rd),
		}
	case 4: // clear, accrue, read back
		return []string{
			"    csrrwi x0, fflags, 0",
			fmt.Sprintf("    fsqrt.d %s, %s", g.freg(), g.freg()),
			fmt.Sprintf("    csrr %s, fflags", rd),
		}
	default: // frm write (non-functional rounding, but state must match)
		return []string{
			fmt.Sprintf("    csrrwi %s, frm, %d", rd, g.rng.Intn(8)),
			fmt.Sprintf("    csrr %s, fcsr", t),
		}
	}
}

// segPaged emits segments that only make sense under translation: accesses
// through the +1GB alias window sharing physical lines with identity
// addresses, page-crossing accesses, and (rarely) an outright page fault
// that ends the program.
func (g *gen) segPaged() []string {
	switch g.rng.Intn(8) {
	case 0:
		return g.segPageFault()
	case 1, 2:
		return g.segAliasStore()
	case 3:
		return g.segPageCross()
	default:
		return g.segAliasLRSC()
	}
}

// segAliasLRSC stresses the VA-vs-PA reservation granule: a reservation
// taken through one virtual window must interact with accesses through the
// other exactly as the shared physical line dictates.
func (g *gen) segAliasLRSC() []string {
	w := g.rng.Intn(2) == 0
	suffix, align := ".d", 8
	if w {
		suffix, align = ".w", 4
	}
	off := g.rng.Intn(bufBytes-8) &^ (align - 1)
	t := g.reg()
	if g.rng.Intn(2) == 0 {
		// LR through the alias, SC through the identity VA: the reservation
		// is physical, so the SC must succeed in both models.
		return []string{
			fmt.Sprintf("    addi x29, x8, %d", off),
			fmt.Sprintf("    li %s, %d", t, pagedOffset),
			fmt.Sprintf("    add %s, %s, x29", t, t),
			fmt.Sprintf("    lr%s %s, (%s)", suffix, g.reg(), t),
			fmt.Sprintf("    sc%s %s, %s, (x29)", suffix, g.reg(), g.src()),
		}
	}
	// LR through the identity VA, intervening store through the alias —
	// same physical line kills the reservation, a different line keeps it.
	var aliasOff int
	if g.rng.Intn(3) == 0 {
		aliasOff = (off + 64 + g.rng.Intn(bufBytes-128)) % (bufBytes - 8) &^ 7
	} else {
		aliasOff = off&^63 + g.rng.Intn(64)&^7
	}
	return []string{
		fmt.Sprintf("    addi x29, x8, %d", off),
		fmt.Sprintf("    lr%s %s, (x29)", suffix, g.reg()),
		fmt.Sprintf("    li %s, %d", t, pagedOffset),
		fmt.Sprintf("    add %s, %s, x8", t, t),
		fmt.Sprintf("    sd %s, %d(%s)", g.src(), aliasOff, t),
		fmt.Sprintf("    sc%s %s, %s, (x29)", suffix, g.reg(), g.src()),
	}
}

// segAliasStore writes through one window and reads through the other: both
// models must observe the store at the shared physical address.
func (g *gen) segAliasStore() []string {
	rd := g.reg()
	g.lastDest = rd
	t := g.reg()
	off := g.rng.Intn(bufBytes-8) &^ 7
	return []string{
		fmt.Sprintf("    li %s, %d", t, pagedOffset),
		fmt.Sprintf("    add %s, %s, x8", t, t),
		fmt.Sprintf("    sd %s, %d(%s)", g.src(), off, t),
		fmt.Sprintf("    ld %s, %d(x8)", rd, off),
	}
}

// segPageCross accesses a doubleword straddling a 4K page boundary through
// the alias window (the pages map physically contiguous memory, so the
// access is legal in both models). The boundary at the stack base is used
// because the bytes on either side are plain data in every profile.
func (g *gen) segPageCross() []string {
	rd := g.reg()
	g.lastDest = rd
	t := g.reg()
	addr := pagedOffset + stackBase - uint64(1+g.rng.Intn(7))
	out := []string{fmt.Sprintf("    li %s, %d", t, addr)}
	if g.rng.Intn(2) == 0 {
		out = append(out, fmt.Sprintf("    sd %s, 0(%s)", g.src(), t))
	}
	return append(out, fmt.Sprintf("    ld %s, 0(%s)", rd, t))
}

// segPageFault runs off the end of the alias window into the first unmapped
// page. With every exception delegated and stvec=0, both models must latch
// the same scause/stval/sepc and halt with -(16+cause).
func (g *gen) segPageFault() []string {
	t := g.reg()
	addr := pagedOffset + pagedPhysSize + uint64(g.rng.Intn(4096)&^7)
	out := []string{fmt.Sprintf("    li %s, %d", t, addr)}
	if g.rng.Intn(2) == 0 {
		return append(out, fmt.Sprintf("    ld %s, 0(%s)", g.reg(), t))
	}
	return append(out, fmt.Sprintf("    sd %s, 0(%s)", g.src(), t))
}
