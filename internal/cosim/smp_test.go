package cosim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"xt910/internal/asm"
)

// runSMPSession assembles src and drives a multi-hart session to completion,
// returning the session (for per-hart inspection) alongside the result.
func runSMPSession(t *testing.T, src string, harts int) (*Session, Result) {
	t.Helper()
	prog, err := asm.Assemble(src, asm.Options{Base: 0x1000, Compress: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	s := NewSession(prog, Options{Harts: harts, MaxCycles: 2_000_000})
	for !s.Done() {
		s.Step()
	}
	return s, s.Finish()
}

// checkSMPClean asserts a divergence-free run in which every hart reached the
// exit ecall with code 0.
func checkSMPClean(t *testing.T, src string, harts int) (*Session, Result) {
	t.Helper()
	s, r := runSMPSession(t, src, harts)
	if r.Diverged {
		t.Fatalf("diverged (hart %d):\n%s", r.Hart, r.Report)
	}
	for i := 0; i < s.Harts(); i++ {
		h := s.Hart(i)
		if !h.Core().Halted {
			t.Fatalf("hart %d never halted (cycle budget?)", i)
		}
		if h.Core().ExitCode != 0 {
			t.Fatalf("hart %d exit code = %d, want 0", i, h.Core().ExitCode)
		}
	}
	return s, r
}

// TestSMPLRSCPingPong is the LR/SC contention divergence-class repro: both
// harts increment one shared counter through bounded LR/SC retry loops, so SC
// failures, cross-hart reservation kills and ownership ping-pong on a single
// line are all exercised under the lock-step compare and the store oracle.
// The second program pins the kill itself: hart 1's store that starts below
// hart 0's reserved line and crosses into it must fail hart 0's SC, in the
// core world (core.BroadcastWrite) and the emulator world (the session's
// OnStore broadcast) alike.
func TestSMPLRSCPingPong(t *testing.T) {
	for _, src := range []string{lrscPingPong, lrscRemoteCrossingStore} {
		checkSMPClean(t, src, 2)
	}
}

const lrscPingPong = `
_start:
    la x8, buf
    li x5, 8
outer:
    li x6, 64
retry:
    lr.d x9, (x8)
    addi x9, x9, 1
    sc.d x10, x9, (x8)
    beqz x10, next
    addi x6, x6, -1
    bnez x6, retry
next:
    addi x5, x5, -1
    bnez x5, outer
    ld x11, 0(x8)
` + exitEpilogue + `
.align 6
buf:
    .dword 0, 0, 0, 0, 0, 0, 0, 0
`

// Hart 0 reserves the line at buf+64 and raises a flag; hart 1 waits for it,
// stores 8 bytes at buf+60 and raises its own flag; hart 0 waits for that and
// must see its SC fail. The flags sit on lines of their own.
const lrscRemoteCrossingStore = `
_start:
    la x8, buf
    li x5, 1
    csrr x13, mhartid
    bnez x13, remote
    addi x11, x8, 64
    lr.d x9, (x11)
    sd x5, 128(x8)
wait_store:
    ld x12, 192(x8)
    beqz x12, wait_store
    sc.d x10, x5, (x11)
    bnez x10, done
    ebreak
remote:
    ld x12, 128(x8)
    beqz x12, remote
    sd x5, 60(x8)
    sd x5, 192(x8)
done:
` + exitEpilogue + `
.align 6
buf:
    .dword 0, 0, 0, 0, 0, 0, 0, 0
    .dword 0, 0, 0, 0, 0, 0, 0, 0
    .dword 0, 0, 0, 0, 0, 0, 0, 0
    .dword 0, 0, 0, 0, 0, 0, 0, 0
`

// TestSMPAMOCounterRace is the AMO contention repro: each hart atomically
// adds 1 to a shared counter 16 times, then spins until the counter reaches
// the cross-hart total. Reaching 32 (and not overshooting past the join, via
// ebreak) proves every AMO was applied exactly once in both worlds.
func TestSMPAMOCounterRace(t *testing.T) {
	checkSMPClean(t, `
_start:
    la x8, buf
    addi x9, x8, 8
    li x6, 1
    li x5, 16
aloop:
    amoadd.d x7, x6, (x9)
    addi x5, x5, -1
    bnez x5, aloop
wait:
    ld x7, 8(x8)
    li x28, 32
    bltu x7, x28, wait
    beq x7, x28, okc
    ebreak
okc:
`+exitEpilogue+`
.align 6
buf:
    .dword 0, 0, 0, 0, 0, 0, 0, 0
`, 2)
}

// TestSMPFenceProducerConsumer is the fence-ordering repro: hart 0 publishes
// data then raises a flag behind a fence; hart 1 spins on the flag, fences,
// and must observe the published value (ebreak otherwise).
func TestSMPFenceProducerConsumer(t *testing.T) {
	checkSMPClean(t, `
_start:
    la x8, buf
    csrr x5, mhartid
    bnez x5, consumer
    li x6, 19088743
    sd x6, 0(x8)
    fence
    li x7, 1
    sd x7, 8(x8)
    beq x0, x0, done
consumer:
spin:
    ld x7, 8(x8)
    beqz x7, spin
    fence
    ld x6, 0(x8)
    li x9, 19088743
    beq x6, x9, done
    ebreak
done:
`+exitEpilogue+`
.align 6
buf:
    .dword 0, 0, 0, 0, 0, 0, 0, 0
`, 2)
}

// TestSMPMSIPIPIDelivery is the IPI repro: hart 0 rings hart 1's CLINT msip
// doorbell and exits; hart 1 spins on a mailbox only its interrupt handler
// writes. Hart 1 can therefore only exit if the machine-software interrupt
// was delivered — at the same commit boundary in both worlds, or the
// lock-step compare fails.
func TestSMPMSIPIPIDelivery(t *testing.T) {
	checkSMPClean(t, `
_start:
    la x8, buf
    la x29, handler
    csrw mtvec, x29
    li x29, 8
    csrw mie, x29
    csrrsi x0, mstatus, 8
    csrr x5, mhartid
    bnez x5, waiter
    li x6, 33554436
    li x7, 1
    sw x7, 0(x6)
    beq x0, x0, done
waiter:
spin:
    ld x7, 16(x8)
    beqz x7, spin
done:
`+exitEpilogue+`
.align 2
handler:
    csrw mscratch, x29
    li x29, 1
    sd x29, 16(x8)
    csrw sscratch, x30
    csrr x29, mhartid
    slli x29, x29, 2
    li x30, 33554432
    add x29, x29, x30
    sw x0, 0(x29)
    csrr x30, sscratch
    csrr x29, mscratch
    mret
.align 6
buf:
    .dword 0, 0, 0, 0, 0, 0, 0, 0
`, 2)
}

// TestSMPOracleCatchesInjectedGrant is the store-order oracle's A/B proof.
// An InjectOwnershipGrant plants a silent Modified copy of one line in hart
// 1's L1 — the model of a dropped invalidation. Cache state is pure timing
// metadata over one shared memory here, so the corruption is architecturally
// invisible: register and memory compare pass in both worlds by construction,
// and only the oracle (hart 1 retires a store to a line the fabric never
// granted it) can see it. With the oracle off the same run must be clean.
func TestSMPOracleCatchesInjectedGrant(t *testing.T) {
	src := `
_start:
    csrr x5, mhartid
    beqz x5, done
    li x9, 262144
    li x7, 77
    sd x7, 0(x9)
done:
` + exitEpilogue
	prog, err := asm.Assemble(src, asm.Options{Base: 0x1000, Compress: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	run := func(oracle bool) Result {
		s := NewSession(prog, Options{Harts: 2, MaxCycles: 1_000_000})
		if !oracle {
			s.oracle = nil
		}
		s.L2().InjectOwnershipGrant(262144, 1)
		for !s.Done() {
			s.Step()
		}
		return s.Finish()
	}
	r := run(true)
	if !r.Diverged || r.Kind != "order" || r.Field != "" {
		t.Fatalf("oracle run: diverged=%v kind=%q field=%q, want an order violation naming no field\n%s",
			r.Diverged, r.Kind, r.Field, r.Report)
	}
	if r.Hart != 1 {
		t.Fatalf("order violation attributed to hart %d, want 1:\n%s", r.Hart, r.Report)
	}
	if !strings.Contains(r.Report, "without owning line") {
		t.Fatalf("report missing ownership detail:\n%s", r.Report)
	}
	if rb := run(false); rb.Diverged {
		t.Fatalf("oracle disabled but run still diverged (%s):\n%s", rb.Kind, rb.Report)
	}
}

// TestSMPFuzzFixedSeeds is the multi-hart property-test entry point: a
// fixed-seed SPMD sweep with contention segments enabled that must stay
// divergence-free at HEAD.
func TestSMPFuzzFixedSeeds(t *testing.T) {
	frs, err := RunSeeds(context.Background(), seedRange(1, 20), 40,
		Options{Modes: Modes{SMP: true}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range frs {
		if fr.Err != nil {
			t.Errorf("seed %d: %v", fr.Seed, fr.Err)
		}
		if fr.Diverged {
			t.Errorf("seed %d diverged (hart %d, %s):\n%s\nshrunk:\n%s",
				fr.Seed, fr.Result.Hart, fr.Result.Kind, fr.Result.Report, fr.Shrunk)
		}
	}
}

// TestSMPVectorStoreRace: hart 0's vse.v and hart 1's sd hit one line. Each
// vse.v executes behind a cold load that holds the ROB head, so hart 1's
// stores commit between its execute and its pop; it must write memory at the
// pop, on a line it owns again, or the two worlds order the writes differently.
func TestSMPVectorStoreRace(t *testing.T) {
	checkSMPClean(t, `
_start:
    la x8, buf
    csrr x5, mhartid
    bnez x5, scalar
    li x9, 0x100000
    li x6, 4
    vsetvli x6, x6, e32, m1
    li x7, 150
vloop:
    ld x10, 0(x9)
    addi x9, x9, 64
    vmv.v.x v1, x7
    vse.v v1, (x8)
    addi x7, x7, -1
    bnez x7, vloop
    beq x0, x0, done
scalar:
    li x7, 6000
sloop:
    sd x7, 8(x8)
    addi x7, x7, -1
    bnez x7, sloop
done:
`+exitEpilogue+`
.align 6
buf:
    .dword 0, 0, 0, 0, 0, 0, 0, 0
`, 2)
}

// TestSMPCoherentSquashOverVector: a load that hart 1's store squashes
// (squashCoherentLoads) is older than a vmacc.vv that has already executed.
// The flush must take the vmacc.vv's result with it: 150 of them sum to 150.
func TestSMPCoherentSquashOverVector(t *testing.T) {
	s, _ := checkSMPClean(t, `
_start:
    la x8, buf
    csrr x5, mhartid
    bnez x5, scalar
    li x9, 0x100000
    li x6, 4
    vsetvli x6, x6, e32, m1
    li x6, 1
    vmv.v.x v1, x6
    vmv.v.x v2, x6
    vmv.v.x v4, x0
    li x7, 150
vloop:
    ld x10, 0(x9)
    addi x9, x9, 64
    ld x11, 0(x8)
    vmacc.vv v4, v1, v2
    addi x7, x7, -1
    bnez x7, vloop
    vmv.x.s x12, v4
    li x13, 150
    beq x12, x13, done
    ebreak
scalar:
    li x7, 6000
sloop:
    sd x7, 0(x8)
    addi x7, x7, -1
    bnez x7, sloop
done:
`+exitEpilogue+`
.align 6
buf:
    .dword 0, 0, 0, 0, 0, 0, 0, 0
`, 2)
	if n := s.Hart(0).Core().Stats.CrossHartSquashes; n == 0 {
		t.Fatal("no coherent-load squash landed on hart 0: the test no longer exercises the flush")
	}
}

// TestSMPDeterministicAcrossJobs checks the acceptance criterion that a
// multi-hart sweep is byte-identical at any worker width.
func TestSMPDeterministicAcrossJobs(t *testing.T) {
	seeds := seedRange(1, 8)
	opts := Options{Modes: Modes{SMP: true}}
	a, err := RunSeeds(context.Background(), seeds, 40, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSeeds(context.Background(), seeds, 40, opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("SMP results differ between jobs=1 and jobs=8")
	}
}

// TestSMPGeneratorEmitsContentionSegments pins the SPMD generator profile:
// across a modest seed sweep every contention segment class appears, the
// handler prologue (with the MSIP doorbell clear) is installed, and the
// segments that are unsound across harts never appear.
func TestSMPGeneratorEmitsContentionSegments(t *testing.T) {
	var lrsc, prodCons, ipi int
	for seed := int64(1); seed <= 40; seed++ {
		src := generate(seed, 40, Modes{SMP: true}, 2).render(nil)
		if strings.Contains(src, "smp_retry") {
			lrsc++
		}
		if strings.Contains(src, "smp_cons") {
			prodCons++
		}
		if strings.Contains(src, "remu x29") {
			ipi++
		}
		if !strings.Contains(src, "irq_handler:") || !strings.Contains(src, "sw x0, 0(x29)") {
			t.Fatalf("seed %d: SMP program missing handler or MSIP doorbell clear", seed)
		}
		for _, banned := range []string{"vsetvli", "fence.i", "patch_", "ebreak"} {
			if strings.Contains(src, banned) {
				t.Fatalf("seed %d: SMP program contains banned construct %q", seed, banned)
			}
		}
	}
	if lrsc == 0 || prodCons == 0 || ipi == 0 {
		t.Fatalf("contention segment coverage: lrsc=%d prodCons=%d ipi=%d (want all > 0)",
			lrsc, prodCons, ipi)
	}
}

// TestModesParsing pins the mode-spec grammar shared by every campaign CLI:
// each of the eight mode sets parses to its Modes, or, when it combines paged
// with irq or smp, is rejected. The legality rule is restated here
// independently of Validate.
func TestModesParsing(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want Modes
	}{
		{"", Modes{}},
		{"paged", Modes{Paged: true}},
		{"irq", Modes{IRQ: true}},
		{"smp", Modes{SMP: true}},
		{"paged,irq", Modes{Paged: true, IRQ: true}},
		{"paged,smp", Modes{Paged: true, SMP: true}},
		{"smp,irq", Modes{IRQ: true, SMP: true}},
		{"paged,irq,smp", Modes{Paged: true, IRQ: true, SMP: true}},
	} {
		m, err := ParseModes(tc.spec)
		if tc.want.Paged && (tc.want.IRQ || tc.want.SMP) {
			if err == nil {
				t.Errorf("ParseModes(%q) = %+v, accepted; want an error", tc.spec, m)
			}
			continue
		}
		if err != nil || m != tc.want {
			t.Errorf("ParseModes(%q) = %+v, %v; want %+v", tc.spec, m, err, tc.want)
		}
	}
	if m, _ := ParseModes("smp,irq"); m.String() != "irq,smp" {
		t.Fatalf("String() = %q, want irq,smp", m.String())
	}
	if _, err := ParseModes("bogus"); err == nil {
		t.Fatal("ParseModes(bogus) accepted, want error")
	}
}

// TestOptionsValidateHartsFold pins that Options.Validate checks the mode set
// AFTER folding in the SMP implied by Harts > 1: a spec that is legal on its
// own must still be rejected when the hart count smuggles SMP into an illegal
// combination.
func TestOptionsValidateHartsFold(t *testing.T) {
	if err := (Options{Modes: Modes{Paged: true}}).Validate(); err != nil {
		t.Fatalf("paged alone: %v", err)
	}
	if err := (Options{Modes: Modes{Paged: true}, Harts: 2}).Validate(); err == nil {
		t.Fatal("paged + Harts 2 accepted, want error (implies paged+smp)")
	}
	if err := (Options{Modes: Modes{IRQ: true}, Harts: 4}).Validate(); err != nil {
		t.Fatalf("irq + Harts 4: %v", err)
	}
	// the session's core world is a soc.System, and no cluster has three cores
	if err := (Options{Harts: 3}).Validate(); err == nil || !strings.Contains(err.Error(), "Table I") {
		t.Fatalf("Harts 3: %v, want an error naming Table I", err)
	}
}
