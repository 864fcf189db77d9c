package cosim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"xt910/internal/asm"
	"xt910/isa"
)

func mustRun(t *testing.T, src string) Result {
	t.Helper()
	return Run(mustAssemble(t, src), Options{})
}

func checkClean(t *testing.T, src string) Result {
	t.Helper()
	r := mustRun(t, src)
	if r.Diverged {
		t.Fatalf("diverged:\n%s", r.Report)
	}
	return r
}

const exitEpilogue = `
    li a7, 93
    li a0, 0
    ecall
`

// TestRegressions replays distilled versions of programs the fuzzer shrank
// while hunting real timing-core/golden-model divergences. Each entry names
// the root cause that was fixed; the lock-step checker is the oracle.
func TestRegressions(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{
			// isa.Inst.Sources() used to drop x0, shifting later operands
			// down a slot: the core evaluated `sra x5, x0, x22` as
			// sra(x22val, 0) and took branches like `blt x0, xN` on the
			// wrong operand. Shrunk from fuzz seed 3.
			name: "sources_x0_positional",
			body: `
    li x22, 61
    li x6, -7
    sub x5, x0, x6
    sll x7, x0, x22
    srl x9, x0, x22
    sra x10, x0, x22
    slt x11, x0, x6
    sltu x12, x0, x6
    subw x13, x0, x6
    sllw x14, x0, x22
    sraw x15, x0, x6
    blt x0, x6, skip1
    addi x16, x16, 1
skip1:
    bge x0, x6, skip2
    addi x16, x16, 2
skip2:
    mula x16, x0, x6
`,
		},
		{
			// The golden model counted a trapping instruction in instret;
			// the core flushes it without committing. Shrunk from fuzz
			// seed 11 (ebreak finale): instret 214 != 215 at the halt
			// compare. Exercised below by the ebreak terminator.
			name: "instret_excludes_trapped",
			body: `
    li x5, 3
    addi x5, x5, 4
    slli x6, x5, 2
`,
		},
		{
			// Word-width ops with x0 as the shifted value hit the same
			// positional-operand bug in its nastiest form: sraiw-family
			// results were the (sign-extended) shift amount instead of 0.
			name: "word_width_x0",
			body: `
    li x20, 0x7fffffff
    addiw x5, x20, 1
    sraiw x6, x20, 4
    srliw x7, x20, 4
    slliw x9, x20, 1
    sraw x10, x0, x20
    srlw x11, x0, x20
    addw x12, x0, x20
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			end := exitEpilogue
			if tc.name == "instret_excludes_trapped" {
				end = "\n    ebreak\n"
			}
			checkClean(t, "_start:\n    la x8, buf\n"+tc.body+end+
				".align 6\nbuf:\n    .dword 1, 2, 3, 4, 5, 6, 7, 8\n")
		})
	}
}

// TestLRSCReservation pins the reservation semantics both models must share:
// any store touching the reserved 64-byte line — including the hart's own,
// and one that starts below the line and crosses into it — kills the
// reservation, and an SC without a live reservation fails. A wrong path
// hits ebreak, so the exit code checks the semantics themselves, not just
// that both models agree.
func TestLRSCReservation(t *testing.T) {
	r := checkClean(t, `
_start:
    la x8, buf
    li x5, 111
    li x6, 222

    # own store to the reserved line kills the reservation: SC must fail
    lr.d x9, (x8)
    sd x5, 8(x8)
    sc.d x10, x6, (x8)
    bnez x10, sc_failed
    ebreak
sc_failed:
    # store to a different line leaves the reservation live: SC succeeds
    lr.d x9, (x8)
    sd x5, 64(x8)
    sc.d x10, x6, (x8)
    beqz x10, sc_ok
    ebreak
sc_ok:
    # orphan SC (no reservation) fails
    sc.d x10, x5, (x8)
    bnez x10, orphan_failed
    ebreak
orphan_failed:
    # a store starting below the reserved line and crossing into it kills
    # the reservation too: SC must fail
    addi x11, x8, 64
    lr.d x9, (x11)
    sd x5, 60(x8)
    sc.d x10, x6, (x11)
    bnez x10, cross_failed
    ebreak
cross_failed:
`+exitEpilogue+`
.align 6
buf:
    .dword 0, 0, 0, 0, 0, 0, 0, 0
    .dword 0, 0, 0, 0, 0, 0, 0, 0
`)
	if r.ExitCode != 0 {
		t.Fatalf("exit code = %d, want 0 (an SC branch went the wrong way)", r.ExitCode)
	}
}

// TestTrapHalt checks the drain-phase synchronization on a trapping finale:
// the core flush-halts on ebreak without committing it, the emulator takes
// one catch-up step, and both land on the same exit code and instret.
func TestTrapHalt(t *testing.T) {
	r := checkClean(t, `
_start:
    li x5, 10
    addi x5, x5, 5
    ebreak
`)
	if r.ExitCode != -(16 + 3) { // breakpoint cause 3
		t.Fatalf("exit code = %d, want %d", r.ExitCode, -(16 + 3))
	}
	if r.Commits != 2 {
		t.Fatalf("commits = %d, want 2", r.Commits)
	}
}

// TestNoHandlerTrapVectorBase checks the no-handler rule on a trap vector
// whose base is 0 but whose mode bits are not: both models must halt with
// exit -(16+cause), not jump to address 0. Once, the emulator halted only on
// a vector of exactly 0 and diverged `halt` on both programs.
func TestNoHandlerTrapVectorBase(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{"mtvec_ebreak", `
_start:
    li t0, 1
    csrw mtvec, t0
    ebreak
`, -(16 + isa.ExcBreakpoint)},
		{"stvec_delegated_ecall", `
_start:
    li t0, 0x200             # delegate ecall from S
    csrw medeleg, t0
    li t0, 1
    csrw stvec, t0
    la t1, smode
    csrw mepc, t1
    li t2, 0x1800
    csrrc zero, mstatus, t2
    li t2, 0x0800            # MPP = S
    csrrs zero, mstatus, t2
    mret
smode:
    li a7, 1234              # not a host call: traps
    ecall
`, -(16 + isa.ExcEcallS)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := checkClean(t, tc.src)
			if r.ExitCode != tc.want {
				t.Fatalf("exit code = %d, want %d", r.ExitCode, tc.want)
			}
		})
	}
}

// TestFuzzFixedSeeds is the property-test entry point: a fixed-seed sweep
// that must stay divergence-free at HEAD. Budget is a fraction of a second.
func TestFuzzFixedSeeds(t *testing.T) {
	frs, err := RunSeeds(context.Background(), seedRange(1, 60), 40, Options{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range frs {
		if fr.Diverged {
			t.Errorf("seed %d diverged:\n%s\nshrunk:\n%s",
				fr.Seed, fr.Result.Report, fr.Shrunk)
		}
	}
}

// TestRunSeedsDeterministic checks that results are byte-identical at any
// worker count: the pool must not leak scheduling order into outcomes.
func TestRunSeedsDeterministic(t *testing.T) {
	seeds := seedRange(1, 12)
	a, err := RunSeeds(context.Background(), seeds, 40, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSeeds(context.Background(), seeds, 40, Options{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("results differ between jobs=1 and jobs=8")
	}
}

// TestShrinkMinimizes plants a single real divergence (a deliberately
// desynced data word via self-modifying code with no fence.i would be
// out-of-scope, so instead corrupt the golden model through an unmodeled
// CSR write) — cheaper: just check the shrinker machinery on a synthetic
// program by dropping segments that don't matter.
func TestShrinkMinimizes(t *testing.T) {
	// Build a program whose divergence (if any) would come from one
	// segment; with a healthy HEAD there is none, so instead verify the
	// shrinker preserves a diverging predicate by driving it directly.
	p := &program{
		inits: []asm.Item{asm.Li(isa.T0, 1)},
		segs: [][]asm.Item{
			{rri(isa.ADDI, isa.X(6), operand(isa.T0), 1)},
			{rri(isa.ADDI, isa.X(7), operand(isa.T0), 2)},
			{rri(isa.ADDI, isa.X(9), operand(isa.T0), 3)},
		},
	}
	src, r := shrink(p, Options{})
	if r.Diverged {
		t.Fatalf("healthy program reported divergent:\n%s", r.Report)
	}
	// With nothing diverging, the mask must stay full: shrink only keeps
	// removals that preserve a failure.
	for _, seg := range []string{"addi x6", "addi x7", "addi x9"} {
		if !strings.Contains(src, seg) {
			t.Fatalf("shrink dropped segment %q from a passing program", seg)
		}
	}
}

func seedRange(lo, hi int64) []int64 {
	var s []int64
	for i := lo; i <= hi; i++ {
		s = append(s, i)
	}
	return s
}
