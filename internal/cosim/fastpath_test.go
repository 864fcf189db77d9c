package cosim

import (
	"fmt"
	"strings"
	"testing"

	"xt910/isa"
)

// spinProgram fills every integer and FP register with all-ones — so that a
// compare which let one register's value hide its neighbour's difference
// would hide any bit — and then loops for far longer than any test below lets
// it run, writing only the three registers named and reading x6 and f1 on the
// way, so that a corrupted mapping of either reaches a destination.
func spinProgram(counter, sum, fsum string) string {
	var b strings.Builder
	b.WriteString("_start:\n")
	for i := 1; i < 32; i++ {
		if i != 2 {
			fmt.Fprintf(&b, "    li x%d, -1\n", i)
		}
	}
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&b, "    fmv.d.x f%d, x1\n", i)
	}
	fmt.Fprintf(&b, `
    li %[1]s, 0
    li x6, 3
    fcvt.d.l f1, x6
loop:
    addi %[1]s, %[1]s, 1
    add %[2]s, x6, %[1]s
    fadd.d %[3]s, f1, f1
    j loop
`, counter, sum, fsum)
	return b.String()
}

// injectAfter steps a session of the spin program to at least n commits,
// applies the fault and runs on until the checker stops it.
func injectAfter(t *testing.T, prog string, n uint64, fault func(*HartSession)) (at uint64, r Result) {
	t.Helper()
	s := NewSession(mustAssemble(t, prog), Options{MaxCycles: 100_000})
	for s.Commits() < n && !s.Done() {
		s.Step()
	}
	at = s.Commits()
	fault(s.Hart(0))
	return at, stepToEnd(s)
}

// TestArchRegCompareEveryRegister: the checker's register compare reads the
// physical register the retirement map names for each of x1–x31 and f0–f31 at
// every commit. One bit flipped in any of them (core.InjectArchRegBit writes
// that same storage) fails the very next commit, as that register, with the
// line the checker has always printed for it.
func TestArchRegCompareEveryRegister(t *testing.T) {
	for reg := 1; reg < 64; reg++ {
		r, bit := isa.Reg(reg), uint(reg%61)
		t.Run(r.String(), func(t *testing.T) {
			// flip a register the loop leaves alone: a write in flight
			// could retire over the fault before any compare saw it
			prog := spinProgram("x5", "x30", "f2")
			switch reg {
			case 5, 30, 32 + 2:
				prog = spinProgram("x7", "x29", "f3")
			}
			var golden uint64
			at, res := injectAfter(t, prog, 150, func(h *HartSession) {
				golden = h.Emu().Reg(r)
				if !h.Core().InjectArchRegBit(reg, bit) {
					t.Fatal("fault refused")
				}
			})
			kind := "xreg"
			if r.IsF() {
				kind = "freg"
			}
			want := fmt.Sprintf("%s: core=%#x emu=%#x", r, golden^(1<<bit), golden)
			if !res.Diverged || res.Kind != kind || res.Field != r.String() || res.FailCommit != at+1 ||
				!strings.Contains(res.Report, "\n  "+want+"\n") {
				t.Fatalf("injected at commit %d, want kind=%s field=%s at commit %d with %q; got diverged=%v kind=%s field=%s commit=%d\n%s",
					at, kind, r, at+1, want, res.Diverged, res.Kind, res.Field, res.FailCommit, res.Report)
			}
		})
	}
}

// TestArchRegCompareSeesRenameFaults: a flipped speculative map entry
// (core.InjectRenameBit) corrupts no register by itself; the next consumer
// renamed through it computes from the wrong physical register, and the
// compare reports that consumer's destination when it retires. Kind, field,
// commit and line are what the parent commit's per-register loops reported.
func TestArchRegCompareSeesRenameFaults(t *testing.T) {
	cases := []struct {
		reg                 int
		kind, field, detail string
		commit              uint64
	}{
		{reg: 6, kind: "xreg", field: "t5", detail: "t5: core=0x17 emu=0x1b", commit: 159},
		{reg: 33, kind: "freg", field: "ft2", detail: "ft2: core=0xffffffffffffffff emu=0x4018000000000000", commit: 160},
	}
	for _, tc := range cases {
		t.Run(isa.Reg(tc.reg).String(), func(t *testing.T) {
			_, res := injectAfter(t, spinProgram("x5", "x30", "f2"), 150, func(h *HartSession) {
				if !h.Core().InjectRenameBit(tc.reg, 0) {
					t.Fatal("fault refused")
				}
			})
			if !res.Diverged || res.Kind != tc.kind || res.Field != tc.field || res.FailCommit != tc.commit ||
				!strings.Contains(res.Report, "\n  "+tc.detail+"\n") {
				t.Fatalf("want kind=%s field=%s commit=%d %q; got diverged=%v kind=%s field=%s commit=%d\n%s",
					tc.kind, tc.field, tc.commit, tc.detail, res.Diverged, res.Kind, res.Field, res.FailCommit, res.Report)
			}
		})
	}
}

// smcRepro executes the instruction at site (an add: 12), overwrites it with
// the one at donor (a sub: -2) by a store through x8, and executes it again
// behind a fence.i. The exit code sums the two results, so it checks that the
// new bytes ran, not just that the two models agree; redirect is spliced in
// after x8 is loaded, for the variants that store through another address.
func smcRepro(redirect string) string {
	return `
_start:
    li x10, 0
    li x11, 5
    li x12, 7
    li x20, 0
    la x8, site
` + redirect + `
    la x9, donor
    lw x21, 0(x9)
again:
site:
    add x13, x11, x12
    add x10, x10, x13
    bnez x20, done
    li x20, 1
    sw x21, 0(x8)
    fence.i
    j again
done:
    li a7, 93
    ecall
donor:
    sub x13, x11, x12
`
}

// TestSMCReexecutedInstruction is the hand repro for the golden model's
// decode memo under the checker: an instruction both models have already
// executed (and the emulator holds decoded) is patched and run again. Base
// mode stores through the fetch address; paged mode through the +1GB alias
// of the code page, so the store's virtual address shares nothing with the
// fetch's.
func TestSMCReexecutedInstruction(t *testing.T) {
	for _, tc := range []struct {
		name, redirect string
		opts           Options
	}{
		{"base", "", Options{}},
		{"paged", "    li x28, 0x40000000\n    add x8, x8, x28\n", Options{Modes: Modes{Paged: true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if r := checkCleanOpts(t, smcRepro(tc.redirect), tc.opts); r.ExitCode != 10 {
				t.Fatalf("exit code = %d, want 10 (12 from the add, -2 from the sub that replaced it)", r.ExitCode)
			}
		})
	}
}

// TestSMPCrossHartCodePatch: hart 0 executes site, tells hart 1, and waits;
// hart 1 patches site in the shared memory and answers; hart 0 fences and
// executes site again. Hart 0's emulator decoded the old bytes and no one
// tells it about hart 1's store — it must still run the new ones (ebreak
// otherwise), in step with its core.
func TestSMPCrossHartCodePatch(t *testing.T) {
	checkSMPClean(t, `
_start:
    la x8, buf
    li x11, 5
    li x12, 7
    csrr x5, mhartid
    bnez x5, patcher
    li x10, 0
    li x20, 0
again:
site:
    add x13, x11, x12
    add x10, x10, x13
    bnez x20, check
    li x20, 1
    sd x20, 0(x8)            # site has executed once
    fence
wait:
    ld x7, 8(x8)
    beqz x7, wait
    fence.i
    j again
check:
    li x9, 10
    beq x10, x9, done
    ebreak
patcher:
    ld x7, 0(x8)
    beqz x7, patcher
    la x9, donor
    lw x21, 0(x9)
    la x6, site
    sw x21, 0(x6)
    fence
    li x7, 1
    sd x7, 8(x8)
done:
`+exitEpilogue+`
donor:
    sub x13, x11, x12
.align 6
buf:
    .dword 0, 0, 0, 0, 0, 0, 0, 0
`, 2)
}
