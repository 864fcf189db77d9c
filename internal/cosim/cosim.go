// Package cosim is the lock-step differential checker of the repo's CDS
// toolchain (§IX): it runs the 12-stage OoO timing core (internal/core) and
// the golden architectural emulator (internal/emu) side by side on the same
// program and compares architectural state at every commit — PC, integer and
// FP register files, touched memory, the LR/SC reservation and the trap/CSR
// state. The first divergence is reported with a windowed commit trace,
// rendered from a ring of the last traceWindow (16) commit records only when
// a run diverges.
//
// Comparison policy (see DESIGN.md "Differential co-simulation"):
//
//   - x/f registers, PC, instret, fcsr and the LR/SC reservation: every
//     commit (IEEE flags are speculative in the pipeline and accrue into
//     fcsr only at retire, which is what makes the per-commit compare sound).
//     Registers and fcsr are read only where either model changed them since
//     the last commit; a write outside the marked paths falls back to the
//     full register compare.
//   - touched memory (64-byte lines written by either model, reported through
//     core.MemWriteHook and emu.OnStore): at every scalar store/AMO commit,
//     the lines written since the last clean compare; at halt and before a
//     checkpoint, every line ever written. A line that compared equal and has
//     not been written through either hook since can differ only by
//     corruption that bypasses the hooks, which the full sweep still catches.
//     A vector store writes memory at its commit like a scalar store, and
//     its lines are checked there.
//   - trap CSRs (mstatus, mepc/mcause/mtval, sepc/scause/stval, mscratch,
//     sscratch, satp, mie, medeleg, mtvec, stvec): at CSR/system commits and
//     at halt. Both models take traps through the one isa.Priv, so what this
//     verifies is what each decides alone — which instruction traps, with
//     which cause, and where it resumes; isa/priv_test.go checks the rules.
//   - vector register file, vl and vtype: at every vector instruction's
//     commit, and again at halt.
//   - cycle/time/mcycle CSR reads: compared modulo the clock. The golden
//     model has no cycle-accurate clock (emu.Machine.Cycles is a coarse
//     retired-instruction model), so after the emulator steps such a read the
//     checker overwrites its destination register with the value the core
//     committed. Everything downstream of the read — arithmetic on the
//     timestamp, branches over deltas — is then compared exactly, which lets
//     the fuzzer emit rdcycle/rdtime/csrr-mcycle instead of excluding them.
//
// # Multi-hart sessions
//
// A session runs N lock-step hart pairs, N = 1 included (Options.Harts > 1 or
// Modes.SMP asks for more): a soc.System of N timing cores sharing one memory
// and one coherent L2, and N golden emulators sharing a second memory. Each
// emulator steps inside its own core's commit hook, so the emulator-world
// interleaving of architectural effects is exactly the core-world global
// commit order — which is what makes per-commit register compare and
// shared-memory compare sound across harts. Cross-hart coupling is the SoC
// fabric's (core.BroadcastWrite): a committed store kills remote reservations
// and squashes remote speculatively-executed overlapping loads (the
// snoop-triggered machine clear); the emulators
// broadcast reservation kills the same way. The system's CLINT is frozen
// (mtime stays 0) and the emulators get one of their own, so MSIP IPIs
// deliver at identical commit positions; a lone hart's device window is
// detached, so a store to mtimecmp is plain memory in both worlds.
//
// On top of the per-hart architectural compare, multi-hart sessions run the
// store-order oracle (see oracle.go): a global commit log of store/AMO/LR-SC
// retirement cross-checked against the coherence fabric's ownership
// transitions, catching protocol bugs — a store retiring on a hart that does
// not own the line — that register compare is structurally blind to.
package cosim

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"xt910/internal/asm"
	"xt910/internal/coherence"
	"xt910/internal/core"
	"xt910/internal/emu"
	"xt910/internal/mem"
	"xt910/internal/mmu"
	"xt910/internal/recycle"
	"xt910/internal/soc"
	"xt910/internal/vector"
	"xt910/isa"
)

// Options configures one lock-step run.
type Options struct {
	Config    core.Config // pipeline configuration; zero value means XT910Config
	MaxCycles uint64      // core cycle budget before declaring a hang (0: 10M)

	// Modes is the composable mode set (paged / irq / smp); Harts > 1
	// implies SMP.
	Modes Modes

	// Harts is the number of lock-step hart pairs, one cluster's: 1, 2 or 4
	// (Table I). 0 means 1, or 2 when Modes.SMP is set.
	Harts int

	// IRQSchedule, when non-empty, drives both models' external interrupt
	// sources with the same deterministic schedule of (commit index → mip
	// bits) events. An event arms once a model has retired AfterCommit
	// instructions and stays armed until that model delivers the interrupt;
	// because the core re-samples at every retirement boundary and the
	// emulator checks before every instruction, both models deliver at the
	// identical architectural point and the checker compares
	// mcause/mepc/mstatus at delivery. In a multi-hart session this is
	// hart 0's schedule; use IRQSchedules for the rest.
	IRQSchedule []IRQEvent

	// IRQSchedules are per-hart interrupt schedules for multi-hart runs
	// (index = hart id). When empty, IRQSchedule serves as hart 0's.
	IRQSchedules [][]IRQEvent

	// SeedTimeout, when positive, bounds the wall time of one fuzz seed in
	// RunSeeds. A seed that blows the deadline is retried once at twice the
	// budget and then reported with TimedOut set instead of failing the run.
	SeedTimeout time.Duration
}

// modes folds the hart count into the mode set.
func (o Options) modes() Modes {
	m := o.Modes
	m.SMP = m.SMP || o.Harts > 1
	return m
}

// Validate checks the fully resolved mode set — including the SMP implied by
// Harts > 1 — against the Modes legality rules, and the session's machine
// against Table I. Callers that accept a hart count must validate the Options,
// not just the -modes spec: Harts can make an illegal set of a legal one
// (paged with -harts 2), or ask for a cluster no XT-910 has (-harts 3).
func (o Options) Validate() error {
	if err := o.modes().Validate(); err != nil {
		return err
	}
	m := o.machine()
	return m.Validate()
}

// machine is the core world a session runs: the stock machine with one
// cluster of its harts, stacks 32 KB apart below stackBase.
func (o Options) machine() soc.Config {
	m := soc.DefaultConfig()
	if o.Config.RetireWidth != 0 {
		m.Core = o.Config
	}
	m.CoresPerCluster, m.StackBase, m.StackSize = o.effectiveHarts(), stackBase, 0x8000
	return m
}

// effectiveHarts resolves the hart-pair count (see Options.Harts).
func (o Options) effectiveHarts() int {
	switch {
	case o.Harts > 0:
		return o.Harts
	case o.modes().SMP:
		return 2
	}
	return 1
}

// hartSchedules normalizes the two schedule fields into one per-hart slice.
func (o Options) hartSchedules(harts int) [][]IRQEvent {
	out := make([][]IRQEvent, harts)
	if len(o.IRQSchedules) > 0 {
		for i := 0; i < harts && i < len(o.IRQSchedules); i++ {
			out[i] = o.IRQSchedules[i]
		}
		return out
	}
	if len(o.IRQSchedule) > 0 {
		out[0] = o.IRQSchedule
	}
	return out
}

// IRQEvent is one entry of an interrupt-injection schedule: the external
// source drives Bits into mip once the model has retired AfterCommit
// instructions, until the resulting interrupt is taken.
type IRQEvent struct {
	AfterCommit uint64 // commit index at which the source arms
	Bits        uint64 // driven mip bits: 1<<3 MSI, 1<<7 MTI, 1<<11 MEI
}

// Paged-mode memory layout. The program, stack and scratch buffer live in
// the identity window; the page tables sit just above it, outside every
// mapping, so the guest cannot scribble over them.
const (
	pagedPhysSize  = 0xA0000
	pagedOffset    = 0x40000000
	pagedTableBase = 0x100000
)

// hookModels, when set (tests only), runs on each hart pair once both models
// are constructed and wired, before the first cycle.
// Tests use it to perturb one model and prove the checker catches a given
// divergence class.
var hookModels func(c *core.Core, m *emu.Machine)

// Result summarises one lock-step run.
type Result struct {
	Commits  uint64 // lock-step-compared commits, summed over all harts
	Cycles   uint64
	ExitCode int
	Diverged bool
	Kind     string // first divergence class: pc xreg freg mem csr lrsc instret vec irq order halt exit output hang emuerr
	Report   string // human-readable report with the windowed commit trace

	// Hart is the hart pair that diverged (0 in single-hart runs).
	Hart int

	// FailCommit is the diverging hart's local commit index of the first
	// divergence (fault-injection campaigns use it to measure detection
	// latency in commits).
	FailCommit uint64

	// Field names the first diverging architectural field within the Kind
	// ("t0", "fcsr", "v2", ...), as the compare that failed names it; every
	// memory divergence is "addr", the address being incidental to the root
	// cause. Empty for a detail that names no field (a pc or halt mismatch,
	// the exit code, the store-order oracle).
	Field string

	// OpClass is the instruction class of the committing instruction at the
	// divergence point (isa.Class.String()), or "none" when the divergence
	// was detected outside a commit (hang, drain-time compare).
	OpClass string

	// TimedOut marks a run killed by its context deadline (RunContext); the
	// comparison state is whatever had been checked when the clock ran out.
	TimedOut bool
}

// Signature is the root-cause bucket of a divergence: the comparison kind,
// the first diverging field and the class of the instruction that exposed
// it, joined as "kind/field/opclass". Two repros with the same signature are
// overwhelmingly the same underlying bug, which is what campaign corpora
// dedup on. Non-diverged results return "".
func (r Result) Signature() string {
	if !r.Diverged {
		return ""
	}
	field, opClass := r.Field, r.OpClass
	if field == "" {
		field = "none"
	}
	if opClass == "" {
		opClass = "none"
	}
	return r.Kind + "/" + field + "/" + opClass
}

// compareCSRs is the trap/translation state checked at CSR and system-class
// commits and at halt. Counters are deliberately absent: instret is checked
// directly against the commit count, and cycle/time have no golden value.
var compareCSRs = []uint16{
	isa.CSRMstatus, isa.CSRMtvec, isa.CSRMepc, isa.CSRMcause, isa.CSRMtval,
	isa.CSRMscratch, isa.CSRMedeleg, isa.CSRMie, isa.CSRMip, isa.CSRMideleg,
	isa.CSRSatp,
	isa.CSRStvec, isa.CSRSepc, isa.CSRScause, isa.CSRStval, isa.CSRSscratch,
	isa.CSRFcsr,
}

// HartSession is one lock-step hart pair inside a Session: a timing core, its
// golden emulator, and the checker comparing them at this hart's own commit
// boundary.
type HartSession struct {
	id  int
	c   *core.Core
	m   *emu.Machine
	k   *checker
	arm *irqArm

	parkRun uint64 // consecutive cycles this hart has been WFI-parked
}

// ID returns the hart index.
func (h *HartSession) ID() int { return h.id }

// Core exposes this hart's timing model (fault injection, inspection).
func (h *HartSession) Core() *core.Core { return h.c }

// Emu exposes this hart's golden model.
func (h *HartSession) Emu() *emu.Machine { return h.m }

// Commits returns this hart's lock-step-compared commit count.
func (h *HartSession) Commits() uint64 { return h.k.commits }

// Session is one in-progress lock-step run that the caller drives cycle by
// cycle: an array of hart pairs (one in single-hart runs) whose cores make up
// a soc.System, plus the store-order oracle when more than one hart is
// present. It exposes both models of every pair so fault-injection campaigns
// can perturb microarchitectural state at a chosen cycle and let the checker
// decide whether the corruption is detected; Run and RunContext are thin
// loops of Advance on top of it.
type Session struct {
	harts   []*HartSession
	sys     *soc.System // the core world
	oracle  *storeOracle
	written *writtenLines // shared by every hart's checker

	maxCycles     uint64
	globalCommits uint64
	failHart      int // first hart pair to diverge, -1 while clean
}

// irqArm is one hart's interrupt-injection schedule state: each model
// consumes events independently (coreIdx / emuIdx), which stay equal at every
// comparison point because both models deliver at the same commit index.
type irqArm struct {
	events  []IRQEvent
	coreIdx int
	emuIdx  int
}

// armedCore returns the mip bits the schedule drives into the core at the
// given commit count.
func (a *irqArm) armedCore(commits uint64) uint64 {
	if a.coreIdx < len(a.events) && commits >= a.events[a.coreIdx].AfterCommit {
		return a.events[a.coreIdx].Bits
	}
	return 0
}

func (a *irqArm) armedEmu(instret uint64) uint64 {
	if a.emuIdx < len(a.events) && instret >= a.events[a.emuIdx].AfterCommit {
		return a.events[a.emuIdx].Bits
	}
	return 0
}

// consumeCore advances the core-side schedule cursor when the delivered
// interrupt was (or could have been) the armed event's. The guard matters in
// mixed CLINT+schedule sessions: an MSIP IPI must not eat a scheduled timer
// event, or the two models' cursors drift apart when their CLINT traffic
// interleaves differently with schedule arming. In pure-schedule runs the
// guard is always true at delivery (the pending bits are exactly the armed
// event's), so single-hart behaviour is unchanged.
func (a *irqArm) consumeCore(cause, commits uint64) {
	if a.coreIdx < len(a.events) {
		if ev := a.events[a.coreIdx]; commits >= ev.AfterCommit && ev.Bits&(1<<cause) != 0 {
			a.coreIdx++
		}
	}
}

func (a *irqArm) consumeEmu(cause, instret uint64) {
	if a.emuIdx < len(a.events) {
		if ev := a.events[a.emuIdx]; instret >= ev.AfterCommit && ev.Bits&(1<<cause) != 0 {
			a.emuIdx++
		}
	}
}

const stackBase = 0x80000

// NewSession builds the models for an already-assembled program and wires the
// lock-step checker (each emulator steps once per commit inside its core's
// retire hook). Each world — timing cores, golden emulators — has one memory
// that all its harts share, the core world one coherent L2 as well; the
// program runs SPMD, one stack per hart. It panics on Options that Validate
// rejects.
func NewSession(p *asm.Program, opts Options) *Session {
	opts.MaxCycles = cmp.Or(opts.MaxCycles, 10_000_000)
	modes := opts.modes()
	sys, err := soc.New(opts.machine())
	if err != nil {
		panic("cosim: " + err.Error())
	}
	sys.CLINT.Divider = 0 // frozen: mtime reads 0 in both worlds
	sys.LoadProgram(p)
	harts := len(sys.Cores)
	scheds := opts.hartSchedules(harts)

	s := &Session{sys: sys, maxCycles: opts.MaxCycles, failHart: -1, written: newWrittenLines()}
	emem := mem.NewMemory()
	p.LoadInto(emem)

	// Only a second hart gives the CLINT (MSIP IPIs) or the store-order oracle
	// anything to do; the emulators get a CLINT of their own.
	var clintC, clintE *soc.CLINT
	if harts > 1 {
		clintC, clintE = &sys.CLINT, soc.NewCLINT(harts)
		s.oracle = newStoreOracle(sys.Clusters[0].L2, sys.Cores[0].MMIO)
	}

	written := s.written
	// Committed-write broadcast, the SoC fabric's: the other harts' reservations
	// die and their speculatively-executed overlapping loads squash. The
	// emulators kill reservations alike.
	coreWrite := func(pa uint64, size int, from int) {
		written.mark(pa, size)
		core.BroadcastWrite(sys.Cores, pa, size, from)
	}
	for h, c := range sys.Cores {
		m := emu.New(emem)
		m.PC = p.Entry
		m.SetReg(isa.SP, c.Reg(isa.SP))
		if harts > 1 {
			m.MMIO = clintE
			// a lone hart keeps the reset value, 0: a write would add mhartid
			// to the CSR image of every checkpoint it takes
			m.SetCSR(isa.CSRMhartid, uint64(h))
		} else {
			c.MMIO, c.IntSource = nil, nil // the device window detached
		}
		if modes.Paged {
			setupPaged(c, m)
		}

		k := &checker{c: c, m: m, hart: h, multi: harts > 1, written: written}
		hs := &HartSession{id: h, c: c, m: m, k: k}
		s.harts = append(s.harts, hs)

		c.CommitHook = func(ci *core.Commit) { s.commit(hs, ci) }
		c.MemWriteHook = coreWrite
		m.OnStore = func(pa uint64, size int) {
			written.mark(pa, size)
			for _, o := range s.harts {
				if o.m != m {
					o.m.KillReservation(pa, size)
				}
			}
		}
		s.wireIRQ(hs, scheds[h], clintC, clintE)
		if hookModels != nil {
			hookModels(c, m)
		}
	}
	return s
}

// wireIRQ connects one hart pair's interrupt sources: the per-hart schedule
// (when present) and, in multi-hart sessions, the per-world CLINT's MSIP bit.
// The core side keys schedule arming on the checker's commit count rather
// than Stats.Retired: the commit hook (and hence the checker's CSR compares)
// runs before Stats.Retired increments, so k.commits is the count that
// matches the emulator's Instret at every point where either model reads mip
// or decides deliverability.
func (s *Session) wireIRQ(hs *HartSession, sched []IRQEvent, clintC, clintE *soc.CLINT) {
	c, m, k := hs.c, hs.m, hs.k
	var arm *irqArm
	if len(sched) > 0 {
		// Private copy: the WFI force-arm mutates the schedule, and callers
		// (the shrinker in particular) re-run the same Options.
		arm = &irqArm{events: append([]IRQEvent(nil), sched...)}
		hs.arm = arm
		k.irq = arm
	}
	if arm == nil && clintC == nil {
		return
	}
	hart := hs.id
	c.IntSource = func(int) uint64 {
		var bits uint64
		if clintC != nil && clintC.SoftPending(hart) {
			bits |= 1 << isa.IntMSoft
		}
		if arm != nil {
			bits |= arm.armedCore(k.commits)
		}
		return bits
	}
	c.InterruptHook = func(cause, resume uint64) {
		if arm != nil {
			arm.consumeCore(cause, k.commits)
		}
		k.coreIRQ = true
		k.coreCause, k.coreResume = cause, resume
	}
	m.IntSource = func() uint64 {
		var bits uint64
		if clintE != nil && clintE.SoftPending(hart) {
			bits |= 1 << isa.IntMSoft
		}
		if arm != nil {
			bits |= arm.armedEmu(m.Instret)
		}
		return bits
	}
	m.OnInterrupt = func(cause uint64) {
		if arm != nil {
			arm.consumeEmu(cause, m.Instret)
		}
		k.emuIRQ = true
		k.emuCause = cause
	}
}

// commit is every hart's commit hook: the per-hart checker first, then the
// store-order oracle (when there is one) over the global retirement stream.
func (s *Session) commit(hs *HartSession, ci *core.Commit) {
	s.globalCommits++
	k := hs.k
	wasFailed := k.failed
	k.onCommit(ci)
	if s.oracle != nil && !k.failed {
		if detail := s.oracle.commit(hs.id, s.globalCommits, ci); detail != nil {
			k.fail(ci, "order", "", detail...)
		}
	}
	if k.failed && !wasFailed && s.failHart < 0 {
		s.failHart = hs.id
	}
}

// Harts returns the number of lock-step hart pairs.
func (s *Session) Harts() int { return len(s.harts) }

// Hart returns one lock-step hart pair.
func (s *Session) Hart(i int) *HartSession { return s.harts[i] }

// L2 exposes the (core-world) shared L2 so experiments can perturb coherence
// state — coherence.InjectOwnershipGrant in particular — mid-run.
func (s *Session) L2() *coherence.L2 { return s.sys.Clusters[0].L2 }

// Commits returns the number of lock-step-compared commits so far, summed
// over all harts.
func (s *Session) Commits() uint64 {
	var n uint64
	for _, h := range s.harts {
		n += h.k.commits
	}
	return n
}

// Cycles returns the core cycle count so far.
func (s *Session) Cycles() uint64 { return s.harts[0].c.Now() }

// Done reports whether the run is over: every core halted, any checker
// failed, or the cycle budget ran out.
func (s *Session) Done() bool {
	for _, h := range s.harts {
		if h.k.failed {
			return true
		}
	}
	return s.sys.Now() >= s.maxCycles || s.sys.AllHalted()
}

// wfiParkWindow is how many cycles a WFI-parked hart idles before the session
// force-arms the next schedule event to wake it. The delay makes the park
// observable (Stats.WFIParkedCycles, the frontend CPI bucket) while still
// bounding it — a parked hart can never idle to the cycle budget.
const wfiParkWindow = 16

// Step advances every live core by one cycle (each emulator follows inside
// its core's commit hook; cores step in hart order, so the global commit
// interleaving is deterministic).
func (s *Session) Step() { s.Advance(0) }

// Advance passes time the way the run loops do, and reports whether the
// session was still running: one System.Advance, no further than limit or
// the cycle budget. Schedules move only at a commit, so every compare runs
// where it does under Step. While an armed hart is WFI-parked the session
// steps, and one parked for wfiParkWindow cycles force-arms its next schedule
// event — simulation state only, so runs stay deterministic.
func (s *Session) Advance(limit uint64) bool {
	if s.Done() {
		return false
	}
	limit = min(limit, s.maxCycles)
	for _, h := range s.harts {
		if h.arm != nil && h.c.WFIParked() {
			limit = 0
		}
	}
	s.sys.Advance(limit)
	for _, h := range s.harts {
		if h.arm != nil && h.c.WFIParked() {
			h.parkRun++
			if h.parkRun >= wfiParkWindow {
				s.forceArm(h)
			}
		} else {
			h.parkRun = 0
		}
	}
	return true
}

// FastForward sums the harts' event-driven-clock counters: how many of the
// session's hart-cycles were jumped, not stepped.
func (s *Session) FastForward() core.FFStats { return s.sys.FastForward() }

// forceArm wakes a WFI-parked hart: the next schedule event's arm point is
// pulled down to the current commit index, or a synthetic timer event is
// appended when the schedule is exhausted. Both models see the mutation (the
// schedule is shared), so delivery still happens at the same commit index.
func (s *Session) forceArm(h *HartSession) {
	arm := h.arm
	if arm.coreIdx < len(arm.events) {
		if h.k.commits < arm.events[arm.coreIdx].AfterCommit {
			arm.events[arm.coreIdx].AfterCommit = h.k.commits
		}
		return
	}
	arm.events = append(arm.events, IRQEvent{AfterCommit: h.k.commits, Bits: 1 << isa.IntMTimer})
}

// Finish runs the end-of-program comparison and assembles the Result. Call
// once, after Done.
func (s *Session) Finish() Result {
	h0 := s.harts[0]
	res := Result{Commits: s.Commits(), Cycles: h0.c.Now(), ExitCode: h0.c.ExitCode}
	if s.failHart < 0 {
		for _, h := range s.harts {
			h.k.drain()
			if h.k.failed {
				s.failHart = h.id
				break
			}
		}
	}
	if s.failHart >= 0 {
		k := s.harts[s.failHart].k
		res.Diverged = true
		res.Kind = k.kind
		res.Field = k.field
		res.Report = k.report()
		res.FailCommit = k.failCommit
		res.Hart = s.failHart
		if k.failInst.Op != 0 {
			res.OpClass = k.failInst.Op.Class().String()
		} else {
			res.OpClass = "none"
		}
	}
	return res
}

// Release hands the session's large tables — the core world's (see
// soc.System.Release), every emulator's, the emulators' memory pages and the
// written-line tracker — to the sessions built after it, each zeroed back to
// what its constructor expects, so that a fuzz seed does not pay for
// allocating and clearing a full-size memory system it barely touches
// (DESIGN.md "Session storage recycling"). The session and everything
// reached through it must not be used afterwards; a second call does nothing.
//
// Only the code that built the session may release it, and only when nothing
// it handed out can still reach the models: Run and RunContext do, and return
// a Result that holds no reference into the session. A caller of NewSession
// that never calls Release loses nothing but the reuse.
func (s *Session) Release() {
	if s.harts == nil {
		return
	}
	s.sys.Release()
	for _, h := range s.harts {
		h.m.Release()
	}
	s.harts[0].m.Mem.Release() // one memory, shared by every emulator
	s.written.release()
	s.harts, s.sys, s.written = nil, nil, nil
}

// Run drives a program to completion under the lock-step checker.
func Run(p *asm.Program, opts Options) Result {
	r, _ := run(context.Background(), p, opts)
	return r
}

// RunContext is Run with cancellation: the context is polled every 1024
// advances, and an expired deadline returns a Result with TimedOut set (not a
// divergence) holding whatever had been compared so far.
func RunContext(ctx context.Context, p *asm.Program, opts Options) Result {
	r, _ := run(ctx, p, opts)
	return r
}

// run is RunContext plus how the session's hart-cycles passed on the host.
func run(ctx context.Context, p *asm.Program, opts Options) (Result, HostClock) {
	s := NewSession(p, opts)
	defer s.Release()
	for n := 1; s.Advance(^uint64(0)); n++ {
		if n&1023 == 0 && ctx.Err() != nil {
			break
		}
	}
	hc := HostClock{FF: s.FastForward()}
	for _, h := range s.harts {
		hc.Cycles += h.c.Now()
	}
	if ctx.Err() != nil {
		h0 := s.harts[0]
		return Result{Commits: s.Commits(), Cycles: h0.c.Now(), ExitCode: h0.c.ExitCode, TimedOut: true}, hc
	}
	return s.Finish(), hc
}

// HostClock says how a run's simulated hart-cycles passed on the host: Cycles
// in all, summed over harts, FF.Elided() of them jumped over and the rest
// stepped. Host-side observability: it is no part of a Result or a SeedRecord,
// which are the same with the event-driven clock on or off.
type HostClock struct {
	Cycles uint64
	FF     core.FFStats
}

// setupPaged builds the identity-plus-offset SV39 page table into both
// models' memories and drops them to S-mode with every exception delegated.
// The layout parameters are compile-time constants, so a build failure here
// is a programming error, not a run outcome.
func setupPaged(c *core.Core, m *emu.Machine) {
	var satp uint64
	for _, mm := range []*mem.Memory{c.Mem, m.Mem} {
		b, err := mmu.IdentityPlusOffset(mm, pagedTableBase, pagedPhysSize, pagedOffset)
		if err != nil {
			panic(err)
		}
		satp = b.Satp(0)
	}
	c.SetCSR(isa.CSRSatp, satp)
	c.SetCSR(isa.CSRMedeleg, 0xFFFF)
	c.SetPrivilege(isa.PrivS)
	m.SetCSR(isa.CSRSatp, satp)
	m.SetCSR(isa.CSRMedeleg, 0xFFFF)
	m.SetPrivilege(isa.PrivS)
}

// writtenLines tracks the mem.LineSize lines either model has written through
// core.MemWriteHook or emu.OnStore. One instance is shared by every hart of a
// session: the memories are shared and both worlds apply stores in the same
// global commit order, so any hart's store commit may compare any hart's lines.
type writtenLines struct {
	// epoch maps every line ever written to the compare epoch of its latest
	// write; its keys are what halt and checkpoint sweep.
	epoch map[uint64]uint64

	// pending lists, once each, the lines written in the current epoch: since
	// the last store-commit compare that found every listed line equal. A
	// line absent from it compared equal and has not been written through
	// either hook since, so it can differ only by corruption that bypasses
	// the hooks — which the full sweep still catches at halt.
	pending []uint64
	now     uint64 // current epoch; starts at 1 so the map's zero value means "never"
}

// freeWrittenLines recycles the trackers between sessions: each is empty,
// its map cleared rather than dropped and its pending list cut to length 0,
// so the next session starts without regrowing either.
var freeWrittenLines recycle.Objects[writtenLines]

// recycledLines bounds the trackers worth listing: the lines of the 16 pages
// a fuzz session touches at most. A cleared map keeps its capacity and the
// halt-time sweep walks all of it, so a kernel's tracker of thousands of
// lines would make every later fuzz seed's sweep that long.
const recycledLines = 16 * mem.PageSize / mem.LineSize

func newWrittenLines() *writtenLines {
	if w := freeWrittenLines.Get(); w != nil {
		return w
	}
	return &writtenLines{epoch: make(map[uint64]uint64), now: 1}
}

// release empties the tracker and hands it to the sessions built after it,
// unless it grew past recycledLines.
func (w *writtenLines) release() {
	if len(w.epoch) > recycledLines {
		return
	}
	clear(w.epoch)
	w.pending, w.now = w.pending[:0], 1
	freeWrittenLines.Put(w)
}

func (w *writtenLines) mark(addr uint64, size int) {
	for line := addr / mem.LineSize; line <= (addr+uint64(size)-1)/mem.LineSize; line++ {
		if w.epoch[line] != w.now {
			w.epoch[line] = w.now
			w.pending = append(w.pending, line)
		}
	}
}

type checker struct {
	c     *core.Core
	m     *emu.Machine
	hart  int  // hart pair index (0 in single-hart sessions)
	multi bool // part of a multi-hart session (report labelling)

	commits uint64
	written *writtenLines
	trace   [traceWindow]core.Commit // ring of the last commits; commit n sits at (n-1) % traceWindow

	// Interrupt-delivery bookkeeping: each model's delivery latches its
	// cause here; the next commit — the handler's first instruction —
	// verifies both delivered the same interrupt and compares the delivery
	// CSRs. Only wireIRQ's hooks latch a delivery, so a hart without an
	// interrupt source never enters the check; irq is non-nil only when a
	// schedule drives this hart, and adds the schedule-position compare.
	irq        *irqArm
	coreIRQ    bool
	emuIRQ     bool
	coreCause  uint64
	coreResume uint64
	emuCause   uint64

	failed     bool
	kind       string
	field      string
	detail     []string
	failCommit uint64
	failPC     uint64
	failInst   isa.Inst
}

// traceWindow is how many of the last commits a divergence report lists.
const traceWindow = 16

// fail records the first divergence: its kind, the field the failing compare
// names ("" when the detail names none) and the detail lines of the report.
func (k *checker) fail(ci *core.Commit, kind, field string, detail ...string) {
	if k.failed {
		return
	}
	k.failed = true
	k.kind = kind
	k.field = field
	k.detail = detail
	k.failCommit = k.commits
	k.failPC = ci.PC
	k.failInst = ci.Inst
}

// onCommit fires from the core's retire stage for every committed
// instruction; the emulator is stepped here so both models observe the same
// retirement order.
func (k *checker) onCommit(ci *core.Commit) {
	if k.failed {
		return
	}
	if k.m.Halted {
		k.fail(ci, "halt", "", "emulator halted while the core is still committing")
		return
	}
	if k.m.PC != ci.PC {
		// The emulator may be one step behind across a trap the core took
		// without committing (trap handlers redirect without a commit
		// record). Give it exactly one catch-up step.
		if err := k.m.Step(); err != nil {
			k.fail(ci, "emuerr", "", err.Error())
			return
		}
	}
	if k.m.Halted {
		k.fail(ci, "halt", "", "emulator halted while the core is still committing")
		return
	}
	if k.m.PC != ci.PC {
		k.fail(ci, "pc", "", fmt.Sprintf("core commits pc=%#x but emulator is at pc=%#x", ci.PC, k.m.PC))
		return
	}
	if err := k.m.Step(); err != nil {
		k.fail(ci, "emuerr", "", err.Error())
		return
	}
	k.commits++
	k.trace[(k.commits-1)%traceWindow] = *ci

	// Interrupt-delivery check: the core's delivery latched coreIRQ and the
	// emulator's catch-up step (which consumed the same schedule event before
	// executing anything) latched emuIRQ; the first commit after delivery —
	// the handler's first instruction — must see both or neither, the same
	// cause, and identical post-delivery trap state.
	if k.coreIRQ || k.emuIRQ {
		if k.coreIRQ != k.emuIRQ {
			k.fail(ci, "irq", "", fmt.Sprintf("delivery mismatch: core took=%v (cause=%d) emu took=%v (cause=%d)",
				k.coreIRQ, k.coreCause, k.emuIRQ, k.emuCause))
			return
		}
		if k.coreCause != k.emuCause {
			k.fail(ci, "irq", "cause", fmt.Sprintf("cause: core=%d emu=%d", k.coreCause, k.emuCause))
			return
		}
		if k.irq != nil && k.irq.coreIdx != k.irq.emuIdx {
			k.fail(ci, "irq", "", fmt.Sprintf("schedule position: core=%d emu=%d", k.irq.coreIdx, k.irq.emuIdx))
			return
		}
		if ev := k.m.CSR(isa.CSRMepc); ev != k.coreResume {
			k.fail(ci, "irq", "", fmt.Sprintf("resume pc: core mepc=%#x emu mepc=%#x", k.coreResume, ev))
			return
		}
		for _, n := range []uint16{isa.CSRMcause, isa.CSRMepc, isa.CSRMstatus, isa.CSRMtvec} {
			if cv, ev := k.c.CSR(n), k.m.CSR(n); cv != ev {
				k.fail(ci, "irq", "", fmt.Sprintf("%s at delivery: core=%#x emu=%#x", isa.CSRName(n), cv, ev))
				return
			}
		}
		k.coreIRQ, k.emuIRQ = false, false
	}

	// cycle/time reads diverge by construction (the golden model has no
	// clock): adopt the core's committed value so the comparison covers
	// everything computed *from* the timestamp rather than the timestamp
	// itself (see the package comment).
	if isCycleCSRRead(ci) {
		k.m.SetReg(ci.Inst.Rd, ci.RdVal)
	}

	// Registers and fcsr are compared where either model changed them since
	// the last commit's compare found them equal: nothing else can differ
	// (DESIGN.md, Contracts, "Per-commit compare").
	if r, cv, differs := k.c.ArchRegMismatchSince(k.m.TakeWrittenRegs(), &k.m.X, &k.m.F); differs {
		kind := "xreg"
		if r.IsF() {
			kind = "freg"
		}
		k.fail(ci, kind, r.String(), fmt.Sprintf("%s: core=%#x emu=%#x", r, cv, k.m.Reg(r)))
		return
	}
	cOK, cAddr := k.c.Reservation()
	eOK, eAddr := k.m.Reservation()
	if cOK != eOK || (cOK && cAddr != eAddr) {
		k.fail(ci, "lrsc", "reservation", fmt.Sprintf("reservation: core valid=%v addr=%#x, emu valid=%v addr=%#x",
			cOK, cAddr, eOK, eAddr))
		return
	}
	if k.m.Instret != k.commits {
		k.fail(ci, "instret", "", fmt.Sprintf("emulator instret=%d after %d core commits",
			k.m.Instret, k.commits))
		return
	}
	// fcsr accrues on every FP commit in both models (flags at execute are
	// speculative in the core and land at retire), so it is comparable at
	// every commit, unlike the clocked counters; it is read once either model
	// wrote it.
	if cw, ew := k.c.TakeFcsrWrite(), k.m.TakeFcsrWrite(); cw || ew {
		if cv, ev := k.c.CSR(isa.CSRFcsr), k.m.CSR(isa.CSRFcsr); cv != ev {
			k.fail(ci, "fcsr", "fcsr", fmt.Sprintf("fcsr: core=%#x emu=%#x", cv, ev))
			return
		}
	}
	switch ci.Inst.Op.Class() {
	case isa.ClassStore, isa.ClassAMO:
		k.compareMemory(ci)
	case isa.ClassCSR, isa.ClassSys:
		k.compareCSRState(ci)
	case isa.ClassVSet, isa.ClassVALU, isa.ClassVFPU, isa.ClassVLoad, isa.ClassVStore:
		k.compareVector(ci)
	}
}

// compareVector checks vl, vtype and the full vector file at a vector
// instruction's commit, and at a vector store's the pending memory lines too.
func (k *checker) compareVector(ci *core.Commit) {
	if cv, ev := k.c.Vec.VL, k.m.CSR(isa.CSRVl); cv != ev {
		k.fail(ci, "vec", "vl", fmt.Sprintf("vl: core=%d emu=%d", cv, ev))
		return
	}
	if cv, ev := uint64(k.c.Vec.VType), k.m.CSR(isa.CSRVtype); cv != ev {
		k.fail(ci, "vec", "vtype", fmt.Sprintf("vtype: core=%#x emu=%#x", cv, ev))
		return
	}
	if !k.c.Vec.File.Equal(k.m.Vec.File) {
		for r := 0; r < 32; r++ {
			if cb, eb := k.c.Vec.File.Bytes(r), k.m.Vec.File.Bytes(r); !bytes.Equal(cb, eb) {
				k.fail(ci, "vec", isa.V(r).String(), fmt.Sprintf("%s: core=%x emu=%x", isa.V(r), cb, eb))
				return
			}
		}
	}
	if ci.Inst.Op.Class() == isa.ClassVStore {
		k.compareMemory(ci)
	}
}

// isCycleCSRRead reports whether a commit is a CSR-class access of a clock
// CSR landing in a comparable integer register.
func isCycleCSRRead(ci *core.Commit) bool {
	if ci.Inst.Op.Class() != isa.ClassCSR || !ci.HasRd {
		return false
	}
	if !ci.Inst.Rd.IsX() || ci.Inst.Rd == isa.Zero {
		return false
	}
	switch ci.Inst.CSR {
	case isa.CSRCycle, isa.CSRTime, isa.CSRMcycle:
		return true
	}
	return false
}

// compareMemory is the store-commit memory check: every line written since
// the last clean compare, run at scalar store, AMO and vector store commits.
func (k *checker) compareMemory(ci *core.Commit) {
	w := k.written
	for _, line := range w.pending {
		if k.compareLine(ci, line) {
			return
		}
	}
	w.pending = w.pending[:0]
	w.now++
}

// sweepMemory checks every line either model has ever written, which also
// covers corruption that reached an already-compared line behind the hooks,
// and fails the run on the lowest line that differs.
func (k *checker) sweepMemory(ci *core.Commit) {
	if addr, cv, ev, differs := k.written.lowestDiff(k.c.Mem, k.m.Mem); differs {
		k.fail(ci, "mem", "addr", fmt.Sprintf("[%#x]: core=%#x emu=%#x", addr, cv, ev))
	}
}

// lowestDiff returns the first differing word of the lowest written line on
// which the two memories differ. The lines are a map's keys, so every one is
// visited and the minimum kept: which line a report names must not depend on
// the order a map happens to be walked in.
func (w *writtenLines) lowestDiff(cm, em *mem.Memory) (addr, cv, ev uint64, differs bool) {
	lowest := ^uint64(0)
	for line := range w.epoch {
		if line >= lowest {
			continue
		}
		if a, c, e, d := lineDiff(cm, em, line); d {
			lowest, addr, cv, ev, differs = line, a, c, e, true
		}
	}
	return addr, cv, ev, differs
}

// compareLine fails the run on the first 8-byte word of a line that differs
// between the two memories, and reports whether it did.
func (k *checker) compareLine(ci *core.Commit, line uint64) bool {
	addr, cv, ev, differs := lineDiff(k.c.Mem, k.m.Mem, line)
	if differs {
		k.fail(ci, "mem", "addr", fmt.Sprintf("[%#x]: core=%#x emu=%#x", addr, cv, ev))
	}
	return differs
}

// lineDiff returns the first 8-byte word of line (an address / mem.LineSize)
// on which the two memories differ.
func lineDiff(cm, em *mem.Memory, line uint64) (addr, cv, ev uint64, differs bool) {
	base := line * mem.LineSize
	for off := uint64(0); off < mem.LineSize; off += 8 {
		if cv, ev := cm.Read(base+off, 8), em.Read(base+off, 8); cv != ev {
			return base + off, cv, ev, true
		}
	}
	return 0, 0, 0, false
}

func (k *checker) compareCSRState(ci *core.Commit) {
	for _, n := range compareCSRs {
		if cv, ev := k.c.CSR(n), k.m.CSR(n); cv != ev {
			k.fail(ci, "csr", isa.CSRName(n), fmt.Sprintf("%s: core=%#x emu=%#x", isa.CSRName(n), cv, ev))
			return
		}
	}
}

// drain runs the end-of-program comparison after the core stops: halt state,
// exit code, output, final registers/memory/CSRs and the vector file.
func (k *checker) drain() {
	last := &core.Commit{PC: k.m.PC}
	if !k.c.Halted {
		k.fail(last, "hang", "", fmt.Sprintf("core did not halt within the cycle budget (%d commits so far)", k.commits))
		return
	}
	// The core may have halted on a trap it never committed; let the
	// emulator execute that trapping instruction.
	if !k.m.Halted {
		if err := k.m.Step(); err != nil {
			k.fail(last, "emuerr", "", err.Error())
			return
		}
	}
	if !k.m.Halted {
		k.fail(last, "halt", "", fmt.Sprintf("core halted (exit=%d) but emulator is still running at pc=%#x",
			k.c.ExitCode, k.m.PC))
		return
	}
	if k.c.ExitCode != k.m.ExitCode {
		k.fail(last, "exit", "", fmt.Sprintf("exit code: core=%d emu=%d", k.c.ExitCode, k.m.ExitCode))
		return
	}
	if string(k.c.Output) != string(k.m.Output) {
		k.fail(last, "output", "output", fmt.Sprintf("output: core=%q emu=%q", k.c.Output, k.m.Output))
		return
	}
	k.sweepMemory(last)
	k.compareCSRState(last)
	if k.failed {
		return
	}
	if field, diffs := k.archDiff(); diffs != nil {
		k.fail(last, "final", field, diffs...)
	}
}

// archDiff is the halt-time and checkpoint compare, one walk over both models
// in place: instret (Stats.Retired against Instret), the x and f registers,
// the reservation, the compared CSRs in ascending CSR number, vl, vtype and
// the first differing byte of each vector register. It returns a line
// "core != emu" for each field that differs and the field of the first; when
// every field matches it formats and allocates nothing. PC and privilege are
// not compared: the drained core has no architectural PC to read back, and
// the trap CSRs carry what the privilege decided.
func (k *checker) archDiff() (field string, diffs []string) {
	c, m := k.c, k.m
	differs := func(f, format string, args ...any) {
		if diffs == nil {
			field = f
		}
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}
	if c.Stats.Retired != m.Instret {
		differs("instret", "instret: %d != %d", c.Stats.Retired, m.Instret)
	}
	for r := isa.X(0); r < isa.V(0); r++ { // x0–x31, then f0–f31
		if cv, ev := c.Reg(r), m.Reg(r); cv != ev {
			differs(r.String(), "%s: %#x != %#x", r, cv, ev)
		}
	}
	cOK, cAddr := c.Reservation()
	eOK, eAddr := m.Reservation()
	if cOK != eOK || (cOK && cAddr != eAddr) {
		differs("reservation", "reservation: valid=%v addr=%#x != valid=%v addr=%#x", cOK, cAddr, eOK, eAddr)
	}
	for _, n := range sortedCSRs {
		if cv, ev := c.CSR(n), m.CSR(n); cv != ev {
			differs(isa.CSRName(n), "csr %s: %#x != %#x", isa.CSRName(n), cv, ev)
		}
	}
	cVL, cVType, cFile := vectorState(c.Vec)
	eVL, eVType, eFile := vectorState(m.Vec)
	if cVL != eVL {
		differs("vl", "vl: %d != %d", cVL, eVL)
	}
	if cVType != eVType {
		differs("vtype", "vtype: %#x != %#x", cVType, eVType)
	}
	if cFile == nil || eFile == nil || cFile.Equal(eFile) {
		return field, diffs
	}
	for r := 0; r < 32; r++ {
		cb, eb := cFile.Bytes(r), eFile.Bytes(r)
		for i := 0; i < len(cb) && i < len(eb); i++ {
			if cb[i] != eb[i] {
				differs(isa.V(r).String(), "%s byte %d: %02x != %02x", isa.V(r), i, cb[i], eb[i])
				break
			}
		}
	}
	return field, diffs
}

// sortedCSRs is compareCSRs in ascending CSR number, the order archDiff
// reports them in.
var sortedCSRs = func() []uint16 {
	s := slices.Clone(compareCSRs)
	slices.Sort(s)
	return s
}()

// vectorState reads a vector unit as archDiff compares it: a model without
// one has vl 0, vtype 0 and no register file.
func vectorState(u *vector.Unit) (vl, vtype uint64, file *vector.File) {
	if u == nil {
		return 0, 0, nil
	}
	return u.VL, uint64(u.VType), u.File
}

// traceLine renders commit n as a line of the report.
func traceLine(n uint64, ci core.Commit) string {
	line := fmt.Sprintf("#%-5d pc=%#06x  %s", n, ci.PC, ci.Inst.String())
	if ci.HasRd {
		line += fmt.Sprintf("  => %s=%#x", ci.Inst.Rd, ci.RdVal)
	}
	if ci.HasAddr {
		line += fmt.Sprintf("  [addr=%#x]", ci.Addr)
	}
	return line
}

// report renders the first divergence with its commit-trace window, oldest
// commit first. The lines are formatted here, from the ring, because only a
// diverging run ever reads them.
func (k *checker) report() string {
	var b strings.Builder
	if k.multi {
		fmt.Fprintf(&b, "cosim divergence: hart=%d kind=%s commit=%d pc=%#x\n", k.hart, k.kind, k.failCommit, k.failPC)
	} else {
		fmt.Fprintf(&b, "cosim divergence: kind=%s commit=%d pc=%#x\n", k.kind, k.failCommit, k.failPC)
	}
	if k.failInst.Op != 0 {
		fmt.Fprintf(&b, "  inst: %s\n", k.failInst.String())
	}
	for _, d := range k.detail {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	if held := min(k.commits, traceWindow); held > 0 {
		fmt.Fprintf(&b, "  last %d commits:\n", held)
		for n := k.commits - held + 1; n <= k.commits; n++ {
			fmt.Fprintf(&b, "    %s\n", traceLine(n, k.trace[(n-1)%traceWindow]))
		}
	}
	return b.String()
}
