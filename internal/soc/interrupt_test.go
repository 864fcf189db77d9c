package soc

import (
	"fmt"
	"testing"

	"xt910/internal/asm"
)

// The interrupt tests exercise the §II CLINT/PLIC machinery end to end:
// memory-mapped timer programming, asynchronous delivery, WFI parking, and
// software IPIs between harts.

// load builds a system from cfg with src assembled and loaded.
func load(t testing.TB, cfg Config, src string) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(src, asm.Options{Base: 0x1000})
	if err != nil {
		t.Fatal(err)
	}
	s.LoadProgram(p)
	return s
}

func runIRQ(t *testing.T, cfg Config, src string, maxCycles uint64) *System {
	t.Helper()
	s := load(t, cfg, src)
	s.Run(maxCycles)
	if !s.AllHalted() {
		t.Fatalf("system did not halt (core0: %s)", s.Cores[0].Stats.String())
	}
	return s
}

// timerSrc programs mtimecmp = mtime + 500 and counts timer interrupts until
// five have fired.
const timerSrc = `
.equ CLINT_MTIME,    0x0200BFF8
.equ CLINT_MTIMECMP, 0x02004000
_start:
    la   t0, handler
    csrw mtvec, t0
    li   s2, 0            # interrupt count
    call arm_timer
    # enable machine timer interrupts
    li   t0, 0x80         # mie.MTIE
    csrw mie, t0
    li   t0, 0x8          # mstatus.MIE
    csrrs zero, mstatus, t0
spin:
    li   t1, 5
    blt  s2, t1, spin
    mv   a0, s2
    li   a7, 93
    ecall

arm_timer:
    li   t1, CLINT_MTIME
    ld   t2, 0(t1)
    addi t2, t2, 500
    li   t1, CLINT_MTIMECMP
    sd   t2, 0(t1)
    ret

handler:
    addi s2, s2, 1
    # re-arm (clears MTIP)
    addi sp, sp, -8
    sd   ra, 0(sp)
    call arm_timer
    ld   ra, 0(sp)
    addi sp, sp, 8
    mret
`

func TestTimerInterrupt(t *testing.T) {
	s := runIRQ(t, DefaultConfig(), timerSrc, 2_000_000)
	if s.Cores[0].ExitCode != 5 {
		t.Fatalf("timer interrupts seen = %d, want 5", s.Cores[0].ExitCode)
	}
	if s.Cores[0].Stats.Interrupts != 5 {
		t.Fatalf("interrupt count stat = %d", s.Cores[0].Stats.Interrupts)
	}
}

// wfiTimerSrc arms the timer 2000 ticks out and parks on wfi; the handler
// exits with 42.
const wfiTimerSrc = `
.equ CLINT_MTIME,    0x0200BFF8
.equ CLINT_MTIMECMP, 0x02004000
_start:
    la   t0, handler
    csrw mtvec, t0
    li   t1, CLINT_MTIME
    ld   t2, 0(t1)
    li   t3, 2000
    add  t2, t2, t3
    li   t1, CLINT_MTIMECMP
    sd   t2, 0(t1)
    li   t0, 0x80
    csrw mie, t0
    li   t0, 0x8
    csrrs zero, mstatus, t0
    wfi                   # park until the timer fires
    # unreachable: the handler exits
    li   a0, -1
    li   a7, 93
    ecall
handler:
    li   a0, 42
    li   a7, 93
    ecall
`

func TestWFIWakesOnTimer(t *testing.T) {
	s := runIRQ(t, DefaultConfig(), wfiTimerSrc, 1_000_000)
	c := s.Cores[0]
	if c.ExitCode != 42 {
		t.Fatalf("exit = %d, want 42 (handler)", c.ExitCode)
	}
	if c.Stats.Cycles < 1500 {
		t.Fatalf("WFI should have parked the hart ~2000 cycles, ran only %d", c.Stats.Cycles)
	}
	// while parked the hart must not have been burning retire slots
	if c.Stats.Retired > 200 {
		t.Fatalf("too many instructions retired for a parked hart: %d", c.Stats.Retired)
	}
	// the park is a window of the event clock, ended by the CLINT's edge
	ref := load(t, DefaultConfig(), wfiTimerSrc)
	steppedRun(ref, 1_000_000)
	ff := s.FastForward()
	if ff.Elided()*10 < 9*c.Stats.Cycles || c.Stats != ref.Cores[0].Stats {
		t.Fatalf("%d of %d cycles elided (want ≥ 90%%); stats %+v, stepped %+v",
			ff.Elided(), c.Stats.Cycles, c.Stats, ref.Cores[0].Stats)
	}
	t.Logf("%d of %d cycles elided", ff.Elided(), c.Stats.Cycles)
}

// ipiSrc: hart 0 sends an IPI to hart 1 through the CLINT msip register;
// hart 1 WFIs until it arrives.
const ipiSrc = `
.equ CLINT_MSIP, 0x02000000
_start:
    csrr t0, mhartid
    bnez t0, receiver
    # sender: give the receiver time to park, then strike
    li   t1, 3000
delay:
    addi t1, t1, -1
    bnez t1, delay
    li   t1, CLINT_MSIP+4  # msip[hart1]
    li   t2, 1
    sw   t2, 0(t1)
    li   a0, 0
    li   a7, 93
    ecall
receiver:
    la   t0, handler
    csrw mtvec, t0
    li   t0, 0x8           # mie.MSIE
    csrw mie, t0
    li   t0, 0x8
    csrrs zero, mstatus, t0
    wfi
    li   a0, -1
    li   a7, 93
    ecall
handler:
    # acknowledge: clear our msip bit
    li   t1, CLINT_MSIP+4
    sw   zero, 0(t1)
    li   a0, 77
    li   a7, 93
    ecall
`

func TestSoftwareIPI(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CoresPerCluster = 2
	s := runIRQ(t, cfg, ipiSrc, 2_000_000)
	if s.Cores[1].ExitCode != 77 {
		t.Fatalf("receiver exit = %d, want 77", s.Cores[1].ExitCode)
	}
	if s.Cores[1].Stats.Interrupts != 1 {
		t.Fatalf("receiver interrupts = %d", s.Cores[1].Stats.Interrupts)
	}
}

// plicSrc enables PLIC source 9 and spins until the external interrupt's
// handler claims it and exits with the claimed line.
const plicSrc = `
.equ PLIC_ENABLE, 0x0C002000
.equ PLIC_CLAIM,  0x0C200004
_start:
    la   t0, handler
    csrw mtvec, t0
    # enable PLIC source 9 for hart 0
    li   t1, PLIC_ENABLE
    li   t2, 0x200
    sd   t2, 0(t1)
    li   t0, 0x800         # mie.MEIE
    csrw mie, t0
    li   t0, 0x8
    csrrs zero, mstatus, t0
spin:
    j    spin
handler:
    li   t1, PLIC_CLAIM
    lw   a0, 0(t1)         # claim: returns the source line
    sw   a0, 0(t1)         # complete
    li   a7, 93
    ecall
`

func TestPLICExternalInterrupt(t *testing.T) {
	s := load(t, DefaultConfig(), plicSrc)
	// let the program set itself up, then raise the device line
	for s.Now() < 2000 && s.Advance(2000) {
	}
	s.PLIC.Raise(9)
	s.Run(100_000)
	if !s.AllHalted() {
		t.Fatal("hart never took the external interrupt")
	}
	if s.Cores[0].ExitCode != 9 {
		t.Fatalf("claimed source = %d, want 9", s.Cores[0].ExitCode)
	}
}

func TestCLINTRegisterAccess(t *testing.T) {
	c := NewCLINT(2)
	base := c.Base
	// mtimecmp word access round trip
	c.Write(base+clintMTimeCmpOff+8, 8, 0x123456789ABCDEF0) // hart 1
	if got := c.Read(base+clintMTimeCmpOff+8, 8); got != 0x123456789ABCDEF0 {
		t.Fatalf("mtimecmp round trip: %#x", got)
	}
	// 32-bit halves
	if got := c.Read(base+clintMTimeCmpOff+8+4, 4); got != 0x12345678 {
		t.Fatalf("mtimecmp high word: %#x", got)
	}
	// msip is a 1-bit register
	c.Write(base, 4, 0xFFFFFFFF)
	if got := c.Read(base, 4); got != 1 {
		t.Fatalf("msip must read back as 0/1, got %#x", got)
	}
	if !c.SoftPending(0) || c.SoftPending(1) {
		t.Fatal("msip pending bits wrong")
	}
	// timer comparison
	c.Write(base+clintMTimeCmpOff, 8, 10)
	c.Advance(10)
	if !c.TimerPending(0) {
		t.Fatal("timer should be pending at mtime >= mtimecmp")
	}
}

// TestCLINTNextEdge: NextEdge is the first tick at which MTIP flips, whatever
// the Divider and phase (none for a frozen CLINT), and one Advance over it is
// the ticks one by one; a timer program at Divider 3 runs on System.Run as on
// the stepped reference.
func TestCLINTNextEdge(t *testing.T) {
	for _, div := range []uint64{0, 1, 3} {
		for _, pre := range []uint64{0, 1, 2, 7} {
			c := NewCLINT(2)
			c.Divider = div
			c.Advance(pre)
			c.Write(c.Base+clintMTimeCmpOff+8, 8, c.MTime()+4) // hart 1
			ref, want := *c, ^uint64(0)
			for n := uint64(1); n <= 64; n++ {
				if ref.Advance(1); ref.TimerPending(1) {
					want = n
					break
				}
			}
			if got := c.NextEdge(); got != want {
				t.Fatalf("divider %d after %d ticks: edge in %d ticks, stepping says %d", div, pre, got, want)
			}
			if want != ^uint64(0) {
				if c.Advance(want); *c != ref {
					t.Fatalf("divider %d after %d ticks: Advance(%d) = %+v, ticks %+v", div, pre, want, *c, ref)
				}
			}
		}
	}
	ref, s := load(t, DefaultConfig(), timerSrc), load(t, DefaultConfig(), timerSrc)
	ref.CLINT.Divider, s.CLINT.Divider = 3, 3
	if rc, c := steppedRun(ref, 2_000_000), s.Run(2_000_000); rc != c || ref.CLINT != s.CLINT || ref.Cores[0].Stats != s.Cores[0].Stats {
		t.Fatalf("divider 3: %d cycles %+v, stepped %d cycles %+v", c, s.Cores[0].Stats, rc, ref.Cores[0].Stats)
	}
}

// timerPeriods are the re-arm distances the under-a-timer tests sweep: primes
// from under half the DRAM latency to well over it, so deliveries land at
// every offset inside a head-executed instruction's stall window.
var timerPeriods = []int{97, 131, 173, 211, 307}

// timerHandler re-arms mtimecmp = mtime + TIMER_PERIOD (which clears MTIP)
// and returns. It owns t1 and t2; the interrupted code must not use them.
const timerHandler = `
handler:
    li   t1, CLINT_MTIME
    ld   t2, 0(t1)
    addi t2, t2, TIMER_PERIOD
    li   t1, CLINT_MTIMECMP
    sd   t2, 0(t1)
    mret
`

// timerPrologue installs timerHandler, arms the first period and enables
// machine timer interrupts only.
const timerPrologue = `
.equ CLINT_MTIME,    0x0200BFF8
.equ CLINT_MTIMECMP, 0x02004000
_start:
    la   t0, handler
    csrw mtvec, t0
    li   t1, CLINT_MTIME
    ld   t2, 0(t1)
    addi t2, t2, TIMER_PERIOD
    li   t1, CLINT_MTIMECMP
    sd   t2, 0(t1)
    li   t0, 0x80         # mie.MTIE
    csrw mie, t0
    li   t0, 0x8          # mstatus.MIE
    csrrs zero, mstatus, t0
`

const atomicsUnderTimerN = 400

// atomicsUnderTimerSrc: each amoadd.d adds one to its own cold line (a
// DRAM-length head stall, so most periods land inside it), then the words are
// summed into the exit code.
func atomicsUnderTimerSrc(period int) string {
	return fmt.Sprintf(".equ TIMER_PERIOD, %d\n.equ N, %d\n", period, atomicsUnderTimerN) + timerPrologue + `
    li   s0, 0x100000     # N words, one per cache line
    li   s1, N
    li   s3, 1
loop:
    amoadd.d zero, s3, (s0)
    addi s0, s0, 64
    addi s1, s1, -1
    bnez s1, loop
    csrw mie, zero
    li   s0, 0x100000
    li   s1, N
    li   a0, 0
sum:
    ld   t0, 0(s0)
    add  a0, a0, t0
    addi s0, s0, 64
    addi s1, s1, -1
    bnez s1, sum
    li   a7, 93
    ecall
` + timerHandler
}

// TestAtomicsUnderTimer: an atomic squashed by an interrupt between its
// ROB-head cache access and its retirement must leave memory untouched. The
// words must sum to the number of atomics that retired, and Stats.Atomics
// must count retirements, not executions.
func TestAtomicsUnderTimer(t *testing.T) {
	const n = atomicsUnderTimerN
	for _, period := range timerPeriods {
		s := runIRQ(t, DefaultConfig(), atomicsUnderTimerSrc(period), 5_000_000)
		c := s.Cores[0]
		if c.Stats.Interrupts == 0 {
			t.Fatalf("period %d: no timer interrupt was delivered", period)
		}
		if c.ExitCode != n {
			t.Errorf("period %d: %d amoadd.d of 1 sum to %d (%d interrupts)", period, n, c.ExitCode, c.Stats.Interrupts)
		}
		if c.Stats.Atomics != n {
			t.Errorf("period %d: Stats.Atomics = %d, want %d", period, c.Stats.Atomics, n)
		}
	}
}

const polledClaimRaises = 50

// polledClaimSrc polls the PLIC claim register with only the timer interrupt
// enabled and exits with the number of claims it completed.
func polledClaimSrc(period int) string {
	return fmt.Sprintf(".equ TIMER_PERIOD, %d\n.equ RAISES, %d\n", period, polledClaimRaises) + timerPrologue + `
.equ PLIC_CLAIM, 0x0C200004
    li   s0, PLIC_CLAIM
    li   s1, 0            # completed claims
    li   s2, RAISES
poll:
    lw   a0, 0(s0)        # claim
    beqz a0, poll
    sw   a0, 0(s0)        # complete
    addi s1, s1, 1
    blt  s1, s2, poll
    mv   a0, s1
    li   a7, 93
    ecall
` + timerHandler
}

// drivePolledClaim runs polledClaimSrc for up to two million cycles, acting as
// the device: it re-raises source 9 each time the program has completed it.
func drivePolledClaim(s *System, k clock) uint64 {
	const budget = 2_000_000
	raised := 0
	for s.Cores[0].Now() < budget && !s.AllHalted() {
		if raised < polledClaimRaises && s.PLIC.pending == 0 {
			s.PLIC.Raise(9)
			raised++
		}
		k.advance(s, budget)
	}
	return s.Cores[0].Now()
}

// TestPolledPLICClaimUnderTimer: a device read squashed between its ROB-head
// execute and its retirement must not have happened. A claim that reached the
// device but never retired would leave the source claimed forever and the poll
// spinning.
func TestPolledPLICClaimUnderTimer(t *testing.T) {
	for _, period := range timerPeriods {
		s := load(t, DefaultConfig(), polledClaimSrc(period))
		drivePolledClaim(s, systemClock)
		if !s.AllHalted() {
			t.Errorf("period %d: poll loop hung (pending %#x, claimed %#x)",
				period, s.PLIC.pending, s.PLIC.claimed)
			continue
		}
		if c := s.Cores[0]; c.ExitCode != polledClaimRaises || c.Stats.Interrupts == 0 {
			t.Errorf("period %d: counted %d of %d claims over %d interrupts", period, c.ExitCode, polledClaimRaises, c.Stats.Interrupts)
		}
	}
}

const vectorUnderTimerN, vectorUnderTimerStores = 2000, 300

// vectorUnderTimerSrc: 2000 vmacc.vv of 1·1 into v4, then a masked vse.v loop
// storing a running count to elements 0 and 2 of its own cold line per
// iteration; the exit code is v4[0].
func vectorUnderTimerSrc(period int) string {
	return fmt.Sprintf(".equ TIMER_PERIOD, %d\n.equ N, %d\n.equ STORES, %d\n", period, vectorUnderTimerN, vectorUnderTimerStores) + timerPrologue + `
    li   t0, 4
    vsetvli t0, t0, e32, m1
    li   t0, 1
    vmv.v.x v0, t0
    vmv.v.x v2, t0
    vmv.v.x v4, zero
    li   s1, N
loop:
    vmacc.vv v4, v0, v2
    addi s1, s1, -1
    bnez s1, loop

    li   t0, 5            # mask: elements 0 and 2
    vmv.v.x v0, t0
    vmv.v.x v6, zero
    li   s0, 0x100000
    li   s1, STORES
fill:
    vadd.vi v6, v6, 1
    vse.v v6, (s0), v0.t
    addi s0, s0, 64
    addi s1, s1, -1
    bnez s1, fill
    csrw mie, zero
    vmv.x.s a0, v4
    li   a7, 93
    ecall
` + timerHandler
}

// TestVectorUnderTimer: a vector op squashed by an interrupt between its
// execute and its retirement must leave the vector file, vl, memory and the
// vector counters untouched, and replay from committed state. The vmacc.vv
// loop must read N (executed against the architectural file they read
// 2050–2095), the buffer must hold exactly the masked running counts, and
// Stats.VecOps counts retirements, not executions.
func TestVectorUnderTimer(t *testing.T) {
	const n, stores, buf = vectorUnderTimerN, vectorUnderTimerStores, 0x100000
	for _, period := range timerPeriods {
		s := runIRQ(t, DefaultConfig(), vectorUnderTimerSrc(period), 5_000_000)
		c := s.Cores[0]
		if c.Stats.Interrupts == 0 {
			t.Fatalf("period %d: no timer interrupt was delivered", period)
		}
		if c.ExitCode != n {
			t.Errorf("period %d: %d vmacc.vv accumulate %d (%d interrupts)", period, n, c.ExitCode, c.Stats.Interrupts)
		}
		// three vmv.v.x, the vmacc.vv loop, two vmv.v.x, the fill loop's pairs, vmv.x.s
		if want := uint64(3 + n + 2 + 2*stores + 1); c.Stats.VecOps != want || c.Stats.VlSpecFails != 1 {
			t.Errorf("period %d: Stats.VecOps = %d, VlSpecFails = %d, want %d and 1", period, c.Stats.VecOps, c.Stats.VlSpecFails, want)
		}
		for i := 0; i < stores; i++ {
			for w, want := range [4]uint64{uint64(i + 1), 0, uint64(i + 1), 0} {
				if got := s.Mem.Read(buf+uint64(64*i+4*w), 4); got != want {
					t.Fatalf("period %d: store %d word %d = %d, want %d", period, i, w, got, want)
				}
			}
		}
	}
}

// hart 0's mtimecmp and the value TestVectorStoreToDevice stores there
const mtimecmp, deviceStoreVal = 0x02004000, 0x123456789A

// deviceStores are the two ways TestVectorStoreToDevice writes mtimecmp.
var deviceStores = []string{
	"sd   t0, 0(t1)",
	"li   t2, 1\n    vsetvli t2, t2, e64, m1\n    vmv.v.x v1, t0\n    vse.v v1, (t1)",
}

// deviceStoreSrc writes deviceStoreVal to mtimecmp with store.
func deviceStoreSrc(store string) string {
	return fmt.Sprintf(`
_start:
    li   t0, %d
    li   t1, %d
    %s
    li   a0, 0
    li   a7, 93
    ecall
`, deviceStoreVal, mtimecmp, store)
}

// TestVectorStoreToDevice: a vse.v to mtimecmp reaches the CLINT exactly as
// the scalar sd to the same address does, and neither writes RAM behind it.
func TestVectorStoreToDevice(t *testing.T) {
	var got [2]uint64
	for i, store := range deviceStores {
		s := runIRQ(t, DefaultConfig(), deviceStoreSrc(store), 100_000)
		got[i] = s.CLINT.mtimecmp[0]
		if ram := s.Mem.Read(mtimecmp, 8); ram != 0 {
			t.Errorf("%q wrote %#x to RAM behind the CLINT", store, ram)
		}
	}
	if got[0] != deviceStoreVal || got[1] != got[0] {
		t.Errorf("mtimecmp after sd = %#x, after vse.v = %#x, want %#x both", got[0], got[1], uint64(deviceStoreVal))
	}
}
