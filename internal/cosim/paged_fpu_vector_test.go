package cosim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"xt910/internal/asm"
	"xt910/internal/core"
	"xt910/internal/emu"
	"xt910/internal/mem"
	"xt910/internal/mmu"
	"xt910/internal/vector"
	"xt910/isa"
)

func mustRunOpts(t *testing.T, src string, opts Options) Result {
	t.Helper()
	prog, err := asm.Assemble(src, asm.Options{Base: 0x1000, Compress: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return Run(prog, opts)
}

func checkCleanOpts(t *testing.T, src string, opts Options) Result {
	t.Helper()
	r := mustRunOpts(t, src, opts)
	if r.Diverged {
		t.Fatalf("diverged:\n%s", r.Report)
	}
	return r
}

// TestPagedAliasLRSC is the hand-written repro for the VA-vs-PA reservation
// class: the +1GB alias window gives every buffer line two virtual
// addresses, and the LR/SC reservation must behave as if it were keyed by
// the physical line — because in both models it now is. A wrong branch hits
// ebreak, so the exit code checks the semantics, not just model agreement.
func TestPagedAliasLRSC(t *testing.T) {
	r := checkCleanOpts(t, `
_start:
    la x8, buf
    li x5, 111
    li x6, 222
    li x28, 0x40000000
    add x28, x28, x8

    # (1) the reservation is physical: LR through the alias, SC through the
    # identity VA — different virtual addresses, same line — must succeed
    lr.d x9, (x28)
    sc.d x10, x6, (x8)
    bnez x10, bad
    # (2) a store through the alias to the reserved physical line kills the
    # reservation even though its VA is 1GB away: SC must fail
    lr.d x9, (x8)
    sd x5, 8(x28)
    sc.d x10, x6, (x8)
    beqz x10, bad
    # (3) a store through the alias to a different line leaves it live
    lr.d x9, (x8)
    sd x5, 64(x28)
    sc.d x10, x6, (x8)
    bnez x10, bad
`+exitEpilogue+`
bad:
    ebreak
.align 6
buf:
    .dword 0, 0, 0, 0, 0, 0, 0, 0
    .dword 0, 0, 0, 0, 0, 0, 0, 0
`, Options{Modes: Modes{Paged: true}})
	if r.ExitCode != 0 {
		t.Fatalf("exit code = %d, want 0 (an SC branch went the wrong way)", r.ExitCode)
	}
}

// TestPagedFaults pins the trap plumbing for every page-fault flavor the
// paged profile can raise: with all exceptions delegated and stvec=0, both
// models halt with -(16+cause) after latching scause/stval/sepc (compared
// by the drain). LR faults as a *store* page fault in both models — the
// pipeline checks writability up front so SC can never fault after a
// successful LR, and the golden model mirrors that.
func TestPagedFaults(t *testing.T) {
	cases := []struct {
		name string
		body string
		exit int
	}{
		{"load_unmapped", "    li x5, 0x400A0000\n    ld x6, 0(x5)\n", -(16 + 13)},
		{"store_unmapped", "    li x5, 0x400A0008\n    sd x6, 0(x5)\n", -(16 + 15)},
		{"lr_unmapped_is_store_fault", "    li x5, 0x400A0040\n    lr.d x6, (x5)\n", -(16 + 15)},
		{"fetch_alias_not_executable", "    li x5, 0x40001000\n    jalr x1, x5, 0\n", -(16 + 12)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := checkCleanOpts(t, "_start:\n"+tc.body+exitEpilogue, Options{Modes: Modes{Paged: true}})
			if r.ExitCode != tc.exit {
				t.Fatalf("exit code = %d, want %d", r.ExitCode, tc.exit)
			}
		})
	}
}

// TestPagedPrivilegeDropFaults is the hand repro for cached translations
// outliving a privilege change. Every page of the paged profile is
// supervisor-only; the test marks the second code page user-accessible in
// both worlds' tables. S-mode loads from buf — both models now hold that
// page's load translation — then drops to U on the user page, where the same
// load must raise a load page fault in both models: delegated, with no
// handler, so both halt on it with scause/stval/sepc latched (compared by the
// drain, asserted here). The golden model's soft TLB used to answer the
// U-mode load from the entry S-mode left behind.
func TestPagedPrivilegeDropFaults(t *testing.T) {
	hookModels = func(c *core.Core, m *emu.Machine) {
		for _, mm := range []*mem.Memory{c.Mem, m.Mem} {
			read := func(pa uint64) uint64 { return mm.Read(pa, 8) }
			res, err := mmu.Walk(read, c.CSR(isa.CSRSatp), 0x2000, mmu.AccFetch, isa.PrivS)
			if err != nil {
				t.Fatal(err)
			}
			leaf := res.PTEAddrs[len(res.PTEAddrs)-1]
			mm.Write(leaf, 8, mm.Read(leaf, 8)|mmu.PteU)
		}
	}
	defer func() { hookModels = nil }()
	prog := mustAssemble(t, `
_start:
    la x8, buf
    ld x5, 0(x8)
    la x6, ucode
    csrw sepc, x6
    sret                     # sstatus.SPP is 0: to U-mode
buf:
    .dword 7
.align 12
ucode:
    ld x7, 0(x8)
`+exitEpilogue)
	if prog.Symbols["ucode"] != 0x2000 {
		t.Fatalf("ucode at %#x, the test marks page 0x2000", prog.Symbols["ucode"])
	}
	s := NewSession(prog, Options{Modes: Modes{Paged: true}})
	r := stepToEnd(s)
	if r.Diverged {
		t.Fatalf("diverged:\n%s", r.Report)
	}
	if want := -(16 + isa.ExcLoadPageFault); r.ExitCode != want {
		t.Fatalf("exit code = %d, want %d (the U-mode load of a supervisor page must fault)", r.ExitCode, want)
	}
	c, m := s.Hart(0).Core(), s.Hart(0).Emu()
	for _, tc := range []struct {
		csr  uint16
		want uint64
	}{
		{isa.CSRScause, isa.ExcLoadPageFault},
		{isa.CSRStval, prog.Symbols["buf"]},
		{isa.CSRSepc, prog.Symbols["ucode"]},
	} {
		if cv, ev := c.CSR(tc.csr), m.CSR(tc.csr); cv != tc.want || ev != tc.want {
			t.Errorf("%s: core=%#x emu=%#x, want %#x", isa.CSRName(tc.csr), cv, ev, tc.want)
		}
	}
}

// TestPagedPageCross drives a doubleword access across a 4K page boundary
// in the alias window (physically contiguous, so the value must round-trip)
// and checks the write is visible through the identity window too.
func TestPagedPageCross(t *testing.T) {
	r := checkCleanOpts(t, `
_start:
    li x5, 0x4007FFFC
    li x6, 0x1122334455667788
    sd x6, 0(x5)
    ld x7, 0(x5)
    bne x6, x7, bad
    li x5, 0x7FFFC
    ld x9, 0(x5)
    bne x6, x9, bad
`+exitEpilogue+`
bad:
    ebreak
`, Options{Modes: Modes{Paged: true}})
	if r.ExitCode != 0 {
		t.Fatalf("exit code = %d, want 0 (page-crossing value mismatch)", r.ExitCode)
	}
}

// TestFFlagsAccrual is the hand-written repro for the FPU-flag class: each
// step provokes one IEEE flag, reads the accrued fflags back, and branches
// to ebreak on the wrong value — so it checks the flag semantics themselves
// (NX/DZ/NV/OF/UF accrual and the fflags/frm/fcsr aliasing), not just that
// the two models agree on them.
func TestFFlagsAccrual(t *testing.T) {
	r := checkClean(t, `
_start:
    la x8, buf
    csrrwi x0, fflags, 0
    li x5, 1
    fcvt.d.l f0, x5
    li x5, 3
    fcvt.d.l f1, x5
    fdiv.d f2, f0, f1        # 1/3: inexact
    csrr x6, fflags
    li x7, 1                 # NX
    bne x6, x7, bad
    fmv.d.x f3, x0
    fdiv.d f4, f0, f3        # 1/0: divide by zero
    csrr x6, fflags
    li x7, 9                 # NX|DZ accrued
    bne x6, x7, bad
    li x5, -1
    fcvt.d.l f5, x5
    fsqrt.d f6, f5           # sqrt(-1): invalid
    csrr x6, fflags
    li x7, 25                # NX|DZ|NV
    bne x6, x7, bad
    csrrwi x0, fflags, 0
    li x5, 0x7FE0000000000000
    fmv.d.x f7, x5
    fmul.d f9, f7, f7        # overflow
    csrr x6, fflags
    li x7, 5                 # OF|NX
    bne x6, x7, bad
    csrrwi x0, frm, 3
    csrr x6, fcsr            # frm window lands at bits 7:5 of fcsr
    li x7, 101               # 5 | 3<<5
    bne x6, x7, bad
    csrrwi x0, fcsr, 0
    li x5, 0x0010000000000000
    fmv.d.x f7, x5
    fmul.d f9, f7, f7        # smallest normal squared: underflow
    csrr x6, fflags
    li x7, 3                 # UF|NX
    bne x6, x7, bad
`+exitEpilogue+`
bad:
    ebreak
.align 6
buf:
    .dword 0, 0, 0, 0, 0, 0, 0, 0
`)
	if r.ExitCode != 0 {
		t.Fatalf("exit code = %d, want 0 (an fflags check went the wrong way)", r.ExitCode)
	}
}

// TestVectorMaskedStore is the hand-written repro for the masked-vector
// class: a vmseq-derived mask in v0 predicates a unit-stride store, and the
// masked-off destination words must keep their previous memory contents. The
// program exits with vlenb, which both models must read as VLEN/8.
func TestVectorMaskedStore(t *testing.T) {
	r := checkClean(t, `
_start:
    la x8, buf
    li x29, 4
    vsetvli x5, x29, e32, m1
    vle.v v1, (x8)           # v1 = {1, 2, 3, 4}
    li x5, 1
    vmv.v.x v2, x5
    vand.vv v3, v1, v2
    vmseq.vv v0, v3, v2      # mask = odd elements: {1, 0, 1, 0}
    addi x29, x8, 64
    vse.v v1, (x29), v0.t    # only elements 0 and 2 may touch memory
    lw x6, 64(x8)
    li x7, 1
    bne x6, x7, bad
    lw x6, 68(x8)
    li x7, 9                 # masked off: original value survives
    bne x6, x7, bad
    lw x6, 72(x8)
    li x7, 3
    bne x6, x7, bad
    lw x6, 76(x8)
    li x7, 9
    bne x6, x7, bad
    csrr a0, vlenb
    li a7, 93
    ecall
bad:
    ebreak
.align 6
buf:
    .dword 0x0000000200000001, 0x0000000400000003
    .dword 0, 0, 0, 0, 0, 0
    .dword 0x0000000900000009, 0x0000000900000009
`)
	if r.ExitCode != vector.VLEN/8 {
		t.Fatalf("exit code = %d, want vlenb = %d (-19: a masked-store word check failed)", r.ExitCode, vector.VLEN/8)
	}
}

// TestVectorStridedIndexed checks the strided and indexed memory forms end
// to end: a stride-8 load picks every other word, and a scatter through an
// index vector lands each element at base+offset.
func TestVectorStridedIndexed(t *testing.T) {
	r := checkClean(t, `
_start:
    la x8, buf
    li x29, 2
    vsetvli x5, x29, e32, m1
    li x6, 8
    vlse.v v1, (x8), x6      # stride 8: {w0, w2} = {1, 3}
    vmv.x.s x7, v1
    li x5, 1
    bne x7, x5, bad
    addi x29, x8, 32
    vle.v v2, (x29)          # index vector: {8, 16}
    vlxei.v v3, (x8), v2     # gather buf[8]=3, buf[16]=7
    vmv.x.s x7, v3
    li x5, 3
    bne x7, x5, bad
    addi x29, x8, 64
    vsxei.v v3, (x29), v2    # scatter: 3 -> +72, 7 -> +80
    lw x7, 72(x8)
    li x5, 3
    bne x7, x5, bad
    lw x7, 80(x8)
    li x5, 7
    bne x7, x5, bad
`+exitEpilogue+`
bad:
    ebreak
.align 6
buf:
    .dword 0x0000000200000001, 0x0000000400000003
    .dword 0x0000000600000007, 0x0000000500000008
    .dword 0x0000001000000008, 0, 0, 0
    .dword 0, 0, 0, 0, 0, 0, 0, 0
`)
	if r.ExitCode != 0 {
		t.Fatalf("exit code = %d, want 0 (a strided/indexed element check failed)", r.ExitCode)
	}
}

// TestInjectedFlagBugCaught proves the checker compares fcsr at EVERY
// commit, not just at CSR commits or halt: the golden model starts with a
// corrupted fcsr that the program's final `csrrwi x0, fcsr, 0` would wash
// out before the halt-time comparison, so only the per-commit compare can
// see it.
func TestInjectedFlagBugCaught(t *testing.T) {
	hookModels = func(c *core.Core, m *emu.Machine) {
		m.SetCSR(isa.CSRFcsr, 0x2)
		m.SetCSR(isa.CSRMstatus, c.CSR(isa.CSRMstatus)) // undo the FS-dirty side effect
	}
	defer func() { hookModels = nil }()
	r := mustRun(t, `
_start:
    li x5, 1
    addi x5, x5, 2
    csrrwi x0, fcsr, 0
`+exitEpilogue)
	if !r.Diverged || r.Kind != "fcsr" || r.Field != "fcsr" {
		t.Fatalf("injected fflags bug not caught per-commit: diverged=%v kind=%q field=%q\n%s",
			r.Diverged, r.Kind, r.Field, r.Report)
	}
}

// TestInjectedVectorBugCaught proves the vector file is compared at every
// vector instruction's commit: a vadd.vv whose result is wrong in one model is
// reported `vec` at its own commit. The golden model's copy of a source
// register is corrupted just before the vadd.vv commits — behind a CSR read,
// which holds the vadd.vv back until it has retired — and both source and
// destination are rewritten right after, so no later vector store's compare
// and no halt-time compare could see the difference.
func TestInjectedVectorBugCaught(t *testing.T) {
	s := NewSession(mustAssemble(t, `
_start:
    li x29, 4
    vsetvli x5, x29, e32, m1
    li x5, 3
    vmv.v.x v2, x5
    vmv.v.x v3, x5
    csrr x6, mscratch
    vadd.vv v1, v2, v3
    vmv.v.x v1, x5
    vmv.v.x v3, x5
`+exitEpilogue), Options{})
	const vadd = 7 // the vadd.vv's commit index
	for s.Commits() < vadd-1 {
		s.Step()
	}
	if s.Commits() != vadd-1 {
		t.Fatalf("stopped at commit %d, want %d: the vadd.vv did not wait for the csrr", s.Commits(), vadd-1)
	}
	s.Hart(0).Emu().Vec.File.Bytes(3)[0] ^= 1
	r := stepToEnd(s)
	if !r.Diverged || r.Kind != "vec" || r.Field != "v1" || r.FailCommit != vadd || !strings.Contains(r.Report, "v1:") {
		t.Fatalf("wrong vadd.vv result not reported at its commit: diverged=%v kind=%q field=%q failCommit=%d\n%s",
			r.Diverged, r.Kind, r.Field, r.FailCommit, r.Report)
	}
}

// TestPagedFixedSeeds is the paged twin of TestFuzzFixedSeeds: the standard
// seed sweep under S-mode/SV39 with alias-window segments enabled must stay
// divergence-free at HEAD.
func TestPagedFixedSeeds(t *testing.T) {
	frs, err := RunSeeds(context.Background(), seedRange(1, 60), 40, Options{Modes: Modes{Paged: true}}, 8)
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

// TestPagedDeterministic checks the paged profile leaks no scheduling order
// into outcomes: results are byte-identical at any worker-pool width.
func TestPagedDeterministic(t *testing.T) {
	seeds := seedRange(1, 12)
	a, err := RunSeeds(context.Background(), seeds, 40, Options{Modes: Modes{Paged: true}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSeeds(context.Background(), seeds, 40, Options{Modes: Modes{Paged: true}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("paged results differ between jobs=1 and jobs=8")
	}
}
