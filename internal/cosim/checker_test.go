package cosim

import (
	"fmt"
	"strings"
	"testing"

	"xt910/internal/asm"
	"xt910/internal/emu"
	"xt910/internal/mem"
	"xt910/internal/workloads"
	"xt910/isa"
)

// stepToEnd drives a session to completion and returns its result.
func stepToEnd(s *Session) Result {
	for !s.Done() {
		s.Step()
	}
	return s.Finish()
}

func mustAssemble(t *testing.T, src string) *asm.Program {
	t.Helper()
	prog, err := asm.Assemble(src, asm.Options{Base: 0x1000, Compress: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return prog
}

// poisonAddr is the data area of the hand-written checker tests. The
// golden-report programs store into its first lines and load from a line
// 1 KB up, where the test has planted a value in the emulator's memory only.
const poisonAddr = 0x20000

// TestReportGolden pins Result.Report byte for byte. The trace lines are
// rendered from the commit ring only when a divergence is reported, so the
// three shapes cover the ring's edge cases: fewer commits than the window,
// a window wrapped many times, and the multi-hart "hart=" header.
func TestReportGolden(t *testing.T) {
	const short = `
_start:
    li   t0, 1
    li   t1, 2
    add  t2, t0, t1
    li   a1, 0x20000
    sd   t2, 8(a1)
    fcvt.d.l f1, t2
    ld   a2, 1024(a1)
` + exitEpilogue
	const wrapped = `
_start:
    li   a1, 0x20000
    li   t0, 100
loop:
    sd   t0, 64(a1)
    lw   t1, 64(a1)
    amoadd.d t2, t0, (a1)
    addi t0, t0, -1
    bnez t0, loop
    sd   zero, 0(a1)
    fence
    ld   a2, 1024(a1)
` + exitEpilogue
	const smp = `
_start:
    csrr t0, mhartid
    li   a1, 0x20000
    slli t1, t0, 6
    add  a1, a1, t1
    li   t2, 20
spin:
    addi t2, t2, -1
    bnez t2, spin
    sd   t0, 8(a1)
    ld   a2, 1024(a1)
` + exitEpilogue

	cases := []struct {
		name   string
		src    string
		opts   Options
		poison uint64 // emulator-only write, making the load from it diverge
		want   string
	}{
		{name: "short", src: short, poison: poisonAddr + 1024, want: goldenShort},
		{name: "wrapped", src: wrapped, poison: poisonAddr + 1024, want: goldenWrapped},
		{name: "smp", src: smp, opts: Options{Harts: 2}, poison: poisonAddr + 64 + 1024, want: goldenSMP},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession(mustAssemble(t, tc.src), tc.opts)
			s.Hart(0).Emu().Mem.Write(tc.poison, 8, 0xdeadbeef)
			r := stepToEnd(s)
			if !r.Diverged || r.Kind != "xreg" || r.Field != "a2" {
				t.Fatalf("want an xreg divergence in a2, got diverged=%v kind=%q field=%q", r.Diverged, r.Kind, r.Field)
			}
			if r.Report != tc.want {
				t.Errorf("report differs\n--- got ---\n%s--- want ---\n%s", r.Report, tc.want)
			}
		})
	}
}

const goldenShort = `cosim divergence: kind=xreg commit=7 pc=0x1014
  inst: ld a2, 1024(a1)
  a2: core=0x0 emu=0xdeadbeef
  last 7 commits:
    #1     pc=0x001000  addi t0, zero, 1  => t0=0x1
    #2     pc=0x001002  addi t1, zero, 2  => t1=0x2
    #3     pc=0x001004  add t2, t0, t1  => t2=0x3
    #4     pc=0x001008  lui a1, 32  => a1=0x20000
    #5     pc=0x00100c  sd t2, 8(a1)  [addr=0x20008]
    #6     pc=0x001010  fcvt.d.l ft1, t2  => ft1=0x4008000000000000
    #7     pc=0x001014  ld a2, 1024(a1)  => a2=0x0  [addr=0x20400]
`

const goldenWrapped = `cosim divergence: kind=xreg commit=505 pc=0x1022
  inst: ld a2, 1024(a1)
  a2: core=0x0 emu=0xdeadbeef
  last 16 commits:
    #490   pc=0x001010  amoadd.d t2, t0, (a1)  => t2=0x13b4  [addr=0x20000]
    #491   pc=0x001014  addi t0, t0, -1  => t0=0x2
    #492   pc=0x001016  bne t0, zero, -14
    #493   pc=0x001008  sd t0, 64(a1)  [addr=0x20040]
    #494   pc=0x00100c  lw t1, 64(a1)  => t1=0x2  [addr=0x20040]
    #495   pc=0x001010  amoadd.d t2, t0, (a1)  => t2=0x13b7  [addr=0x20000]
    #496   pc=0x001014  addi t0, t0, -1  => t0=0x1
    #497   pc=0x001016  bne t0, zero, -14
    #498   pc=0x001008  sd t0, 64(a1)  [addr=0x20040]
    #499   pc=0x00100c  lw t1, 64(a1)  => t1=0x1  [addr=0x20040]
    #500   pc=0x001010  amoadd.d t2, t0, (a1)  => t2=0x13b9  [addr=0x20000]
    #501   pc=0x001014  addi t0, t0, -1  => t0=0x0
    #502   pc=0x001016  bne t0, zero, -14
    #503   pc=0x00101a  sd zero, 0(a1)  [addr=0x20000]
    #504   pc=0x00101e  fence
    #505   pc=0x001022  ld a2, 1024(a1)  => a2=0x0  [addr=0x20400]
`

const goldenSMP = `cosim divergence: hart=1 kind=xreg commit=47 pc=0x101a
  inst: ld a2, 1024(a1)
  a2: core=0x0 emu=0xdeadbeef
  last 16 commits:
    #32    pc=0x001010  addi t2, t2, -1  => t2=0x6
    #33    pc=0x001012  bne t2, zero, -2
    #34    pc=0x001010  addi t2, t2, -1  => t2=0x5
    #35    pc=0x001012  bne t2, zero, -2
    #36    pc=0x001010  addi t2, t2, -1  => t2=0x4
    #37    pc=0x001012  bne t2, zero, -2
    #38    pc=0x001010  addi t2, t2, -1  => t2=0x3
    #39    pc=0x001012  bne t2, zero, -2
    #40    pc=0x001010  addi t2, t2, -1  => t2=0x2
    #41    pc=0x001012  bne t2, zero, -2
    #42    pc=0x001010  addi t2, t2, -1  => t2=0x1
    #43    pc=0x001012  bne t2, zero, -2
    #44    pc=0x001010  addi t2, t2, -1  => t2=0x0
    #45    pc=0x001012  bne t2, zero, -2
    #46    pc=0x001016  sd t0, 8(a1)  [addr=0x20048]
    #47    pc=0x00101a  ld a2, 1024(a1)  => a2=0x0  [addr=0x20440]
`

// TestDivergenceFields: the kinds no other test provokes each end with the
// field their compare names. A loop runs under a live reservation and reads
// mhartid, a CSR-class commit, every iteration; each row corrupts the golden
// model once, mid-loop or after both models halted.
func TestDivergenceFields(t *testing.T) {
	const src = `
_start:
    li   a1, 0x20000
    lr.d t3, (a1)
    li   t1, 100
loop:
    csrr t2, mhartid
    addi t1, t1, -1
    bnez t1, loop
` + exitEpilogue
	prog := mustAssemble(t, src)
	for _, tc := range []struct {
		kind, field string
		halted      bool // corrupt after both models halted, not mid-loop
		corrupt     func(m *emu.Machine)
	}{
		{"pc", "", false, func(m *emu.Machine) { m.PC = prog.Entry }},
		{"halt", "", false, func(m *emu.Machine) { m.Halted = true }},
		{"lrsc", "reservation", false, func(m *emu.Machine) { m.KillReservation(poisonAddr, 8) }},
		{"instret", "", false, func(m *emu.Machine) { m.Instret += 2 }},
		{"csr", "mscratch", false, func(m *emu.Machine) { m.SetCSR(isa.CSRMscratch, 0x77) }},
		{"exit", "", true, func(m *emu.Machine) { m.ExitCode = 7 }},
		{"output", "output", true, func(m *emu.Machine) { m.Output = []byte("x") }},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			s := NewSession(prog, Options{})
			defer s.Release()
			for !s.Done() && (tc.halted || s.Commits() < 40) {
				s.Step()
			}
			if s.Done() != tc.halted {
				t.Fatalf("done=%v at commit %d, want %v", s.Done(), s.Commits(), tc.halted)
			}
			tc.corrupt(s.Hart(0).Emu())
			if r := stepToEnd(s); !r.Diverged || r.Kind != tc.kind || r.Field != tc.field {
				t.Fatalf("diverged=%v kind=%q field=%q, want %s field %q\n%s",
					r.Diverged, r.Kind, r.Field, tc.kind, tc.field, r.Report)
			}
		})
	}
}

// TestStepSteadyStateAllocs asserts the lock-step steady state allocates
// nothing: after warm-up (queues, maps and the page tables of both memories
// at their working size) a Session.Step on coremark does no heap allocation —
// not in the core's fetch path, not in the per-commit compare.
func TestStepSteadyStateAllocs(t *testing.T) {
	prog, err := workloads.CoreMark.Program(workloads.CoreMark.DefaultIters, true)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(prog, Options{})
	for i := 0; i < 20000; i++ {
		s.Step()
	}
	const steps = 20000
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < steps; i++ {
			s.Step()
		}
	})
	if s.Done() {
		t.Fatalf("coremark finished inside the measured window (%d commits); raise its size", s.Commits())
	}
	if allocs != 0 {
		t.Errorf("%v allocations in %d steady-state steps, want 0", allocs, steps)
	}
}

// TestLongKernelsLockStep runs the two long-footprint kernels at their paper
// size under the checker. They write thousands of distinct lines, which the
// store-commit compare must not re-read at every store.
func TestLongKernelsLockStep(t *testing.T) {
	if testing.Short() {
		t.Skip("long lock-step kernels")
	}
	for _, w := range []workloads.Workload{workloads.Stream, workloads.SpecLike} {
		t.Run(w.Name, func(t *testing.T) {
			prog, err := w.Program(w.DefaultIters, true)
			if err != nil {
				t.Fatal(err)
			}
			r := Run(prog, Options{MaxCycles: 1 << 32})
			if r.Diverged {
				t.Fatalf("diverged:\n%s", r.Report)
			}
			if r.Commits == 0 {
				t.Fatal("no commits")
			}
		})
	}
}

// TestDrainCatchesHookBypassingCorruption flips a bit in a line the checker
// has already compared clean, through core.InjectMemBit — which bypasses the
// store path and every write hook. The program keeps storing elsewhere and
// never touches the line again, so only a sweep over every written line can
// see it; the halt-time drain must still report it as a memory divergence.
func TestDrainCatchesHookBypassingCorruption(t *testing.T) {
	const src = `
_start:
    li   a1, 0x20000
    li   t0, 0x55
    sd   t0, 0(a1)
    li   t1, 400
loop:
    sd   t1, 256(a1)
    addi t1, t1, -1
    bnez t1, loop
` + exitEpilogue
	s := NewSession(mustAssemble(t, src), Options{})
	// run past the first store's commit and a few loop stores, so the line
	// has been compared at least once
	for s.Commits() < 40 && !s.Done() {
		s.Step()
	}
	if s.Done() {
		t.Fatal("program ended before the injection point")
	}
	s.Hart(0).Core().InjectMemBit(poisonAddr, 3)
	r := stepToEnd(s)
	if !r.Diverged || r.Kind != "mem" || r.Field != "addr" {
		t.Fatalf("want a mem/addr divergence, got diverged=%v kind=%q field=%q\n%s", r.Diverged, r.Kind, r.Field, r.Report)
	}
	if want := fmt.Sprintf("[%#x]: core=0x5d emu=0x55", poisonAddr); !strings.Contains(r.Report, want+"\n") {
		t.Errorf("report does not name the flipped word %q:\n%s", want, r.Report)
	}
}

// TestIRQVectorStoreSeedsClean pins the seven irq-mode seeds in 1..19200 that
// diverged `mem` while a vector store wrote memory when it executed: an
// interrupt squashed a masked vse.v whose writes were already there. They run
// clean, to these commit counts, the core's invariants (the vector log among
// them) holding after every cycle.
func TestIRQVectorStoreSeedsClean(t *testing.T) {
	for _, tc := range []struct {
		seed    int64
		commits uint64
	}{
		{2951, 426}, {3244, 371}, {3284, 430}, {3780, 444}, {11997, 425}, {12093, 422}, {17069, 475},
	} {
		src, sched := GenerateSource(tc.seed, 0, Options{Modes: Modes{IRQ: true}})
		s := NewSession(mustAssemble(t, src), Options{Modes: Modes{IRQ: true}, IRQSchedule: sched})
		for !s.Done() {
			s.Step()
			if msg := s.Hart(0).Core().CheckInvariants(); msg != "" {
				t.Fatalf("seed %d cycle %d: %s", tc.seed, s.Cycles(), msg)
			}
		}
		if r := s.Finish(); r.Diverged || r.Commits != tc.commits {
			t.Errorf("seed %d: diverged=%v (%s) commits=%d, want a clean run of %d commits\n%s",
				tc.seed, r.Diverged, r.Kind, r.Commits, tc.commits, r.Report)
		}
	}
}

// TestStandaloneInstretForksOnlyOnClockReads states what the three counters
// count. In lock-step, cosim commits, core.Stats.Retired and emu.Instret are
// one number: instructions retired, a trapping instruction counted by none.
// The golden model run on its own reaches the same number unless the program
// reads a clock (cycle, time, instret and their m-twins) — a standalone
// emulator answers from its own instret count, and a fuzz program may branch on
// what it read (seed 713: 374 standalone, 376 in lock-step).
func TestStandaloneInstretForksOnlyOnClockReads(t *testing.T) {
	n := int64(2000)
	if testing.Short() {
		n = 750 // seed 713 forks
	}
	forks := 0
	for seed := int64(1); seed <= n; seed++ {
		src, _ := GenerateSource(seed, 0, Options{})
		readsClock := strings.Contains(src, "cycle") || strings.Contains(src, "time") || strings.Contains(src, "instret")
		prog := mustAssemble(t, src)
		s := NewSession(prog, Options{})
		r := stepToEnd(s)
		retired, lockstep := s.Hart(0).Core().Stats.Retired, s.Hart(0).Emu().Instret
		s.Release()
		if r.Diverged || retired != r.Commits || lockstep != r.Commits {
			t.Fatalf("seed %d: diverged=%v commits=%d Stats.Retired=%d lock-step Instret=%d", seed, r.Diverged, r.Commits, retired, lockstep)
		}
		m := emu.New(mem.NewMemory())
		prog.LoadInto(m.Mem)
		m.PC, m.X[isa.SP] = prog.Entry, stackBase
		if err := m.Run(1 << 20); err != nil || !m.Halted {
			t.Fatalf("seed %d: standalone emulator: halted=%v err=%v", seed, m.Halted, err)
		}
		if m.Instret != r.Commits {
			forks++
			if !readsClock {
				t.Errorf("seed %d reads no clock, yet standalone Instret=%d and lock-step commits=%d", seed, m.Instret, r.Commits)
			}
		}
	}
	if forks == 0 {
		t.Error("no seed forked on a clock read: the test no longer covers the case it explains")
	}
}
