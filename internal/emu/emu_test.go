package emu

import (
	"testing"

	"xt910/internal/asm"
	"xt910/internal/mem"
	"xt910/internal/mmu"
	"xt910/internal/workloads"
	"xt910/isa"
)

// run assembles src, executes it to completion, and returns the machine.
func run(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := asm.Assemble(src, asm.Options{Base: 0x1000})
	if err != nil {
		t.Fatal(err)
	}
	m := New(mem.NewMemory())
	p.LoadInto(m.Mem)
	m.PC = p.Entry
	m.X[2] = 0x80000 // stack
	if err := m.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Halted {
		t.Fatal("program did not halt")
	}
	return m
}

const exitSeq = `
    li a7, 93
    ecall
`

func TestArithmeticProgram(t *testing.T) {
	m := run(t, `
_start:
    li   t0, 100
    li   t1, 7
    mul  t2, t0, t1       # 700
    div  t3, t2, t1       # 100
    rem  t4, t2, t0       # 0
    add  a0, t2, t3       # 800
    sub  a0, a0, t4
`+exitSeq)
	if m.ExitCode != 800 {
		t.Fatalf("exit code = %d, want 800", m.ExitCode)
	}
}

func TestFibonacciLoop(t *testing.T) {
	m := run(t, `
_start:
    li   a0, 0
    li   a1, 1
    li   t0, 20
loop:
    add  t1, a0, a1
    mv   a0, a1
    mv   a1, t1
    addi t0, t0, -1
    bnez t0, loop
`+exitSeq)
	if m.ExitCode != 6765 {
		t.Fatalf("fib(20) = %d, want 6765", m.ExitCode)
	}
}

func TestRecursiveCall(t *testing.T) {
	m := run(t, `
_start:
    li   a0, 10
    call fact
`+exitSeq+`
fact:                      # a0 = n -> a0 = n!
    li   t0, 2
    bge  a0, t0, rec
    li   a0, 1
    ret
rec:
    addi sp, sp, -16
    sd   ra, 0(sp)
    sd   a0, 8(sp)
    addi a0, a0, -1
    call fact
    ld   t1, 8(sp)
    mul  a0, a0, t1
    ld   ra, 0(sp)
    addi sp, sp, 16
    ret
`)
	if m.ExitCode != 3628800 {
		t.Fatalf("10! = %d", m.ExitCode)
	}
}

func TestMemoryAndBytes(t *testing.T) {
	m := run(t, `
_start:
    la   t0, buf
    li   t1, -2
    sb   t1, 0(t0)
    lbu  t2, 0(t0)        # 0xFE
    lb   t3, 0(t0)        # -2
    sh   t1, 2(t0)
    lhu  t4, 2(t0)        # 0xFFFE
    add  a0, t2, t4       # 0xFE + 0xFFFE = 0x100FC
    add  a0, a0, t3       # -2 -> 0x100FA
`+exitSeq+`
buf: .space 16
`)
	if m.ExitCode != 0x100FA {
		t.Fatalf("exit = %#x", m.ExitCode)
	}
}

func TestUnalignedAccess(t *testing.T) {
	m := run(t, `
_start:
    la   t0, buf
    li   t1, 0x1122334455667788
    sd   t1, 3(t0)        # unaligned store (LSU supports it, §II)
    ld   a0, 3(t0)
    xor  a0, a0, t1       # 0 if round-tripped
`+exitSeq+`
buf: .space 32
`)
	if m.ExitCode != 0 {
		t.Fatalf("unaligned round trip failed: %#x", m.ExitCode)
	}
}

func TestCustomExtensions(t *testing.T) {
	m := run(t, `
_start:
    la   t0, arr
    li   t1, 3            # index
    lrw  a0, t0, t1, 2    # arr[3] == 33
    li   t2, 0xF0
    extu a1, t2, 7, 4     # 0xF
    li   a2, 0
    li   t3, 5
    li   t4, 6
    mula a2, t3, t4       # 30
    add  a0, a0, a1
    add  a0, a0, a2       # 33 + 15 + 30 = 78
`+exitSeq+`
arr: .word 0, 11, 22, 33, 44
`)
	if m.ExitCode != 78 {
		t.Fatalf("custom ext result = %d, want 78", m.ExitCode)
	}
}

func TestFloatProgram(t *testing.T) {
	m := run(t, `
_start:
    la    t0, vals
    fld   fa0, 0(t0)
    fld   fa1, 8(t0)
    fadd.d fa2, fa0, fa1   # 3.5
    fmul.d fa3, fa2, fa1   # 8.75
    fcvt.w.d a0, fa3       # 8
`+exitSeq+`
.align 3
vals:
    .dword 0x3FF0000000000000   # 1.0
    .dword 0x4004000000000000   # 2.5
`)
	if m.ExitCode != 8 {
		t.Fatalf("fp result = %d, want 8", m.ExitCode)
	}
}

func TestVectorDotProduct(t *testing.T) {
	m := run(t, `
_start:
    li   t0, 8
    vsetvli t1, t0, e32, m2
    la   a1, va
    la   a2, vb
    vle.v v0, (a1)
    vle.v v2, (a2)
    li   t2, 0
    vmv.s.x v8, t2
    vmv.v.x v4, t2
    vmacc.vv v4, v0, v2      # elementwise products (acc from zero)
    vredsum.vs v6, v4, v8
    vmv.x.s a0, v6
`+exitSeq+`
.align 4
va: .word 1, 2, 3, 4, 5, 6, 7, 8
vb: .word 8, 7, 6, 5, 4, 3, 2, 1
`)
	// dot = 8+14+18+20+20+18+14+8 = 120
	if m.ExitCode != 120 {
		t.Fatalf("vector dot = %d, want 120", m.ExitCode)
	}
}

func TestVsetvlVLMax(t *testing.T) {
	m := run(t, `
_start:
    li   t0, 1000
    vsetvli a0, t0, e8, m1   # VLMAX = 128/8 = 16
`+exitSeq)
	if m.ExitCode != 16 {
		t.Fatalf("vl = %d, want 16 (VLEN=128, e8)", m.ExitCode)
	}
}

func TestAMOAndLRSC(t *testing.T) {
	m := run(t, `
_start:
    la   t0, cell
    li   t1, 5
    amoadd.d a0, t1, (t0)   # returns 0, cell=5
retry:
    lr.d t2, (t0)
    addi t2, t2, 1
    sc.d t3, t2, (t0)
    bnez t3, retry
    ld   a0, 0(t0)          # 6
`+exitSeq+`
.align 3
cell: .dword 0
`)
	if m.ExitCode != 6 {
		t.Fatalf("atomic result = %d, want 6", m.ExitCode)
	}
}

func TestWriteSyscall(t *testing.T) {
	m := run(t, `
_start:
    li  a7, 64
    li  a0, 1
    la  a1, msg
    li  a2, 5
    ecall
    li  a0, 0
`+exitSeq+`
msg: .ascii "hello"
`)
	if string(m.Output) != "hello" {
		t.Fatalf("output = %q", m.Output)
	}
}

func TestTrapRoundTrip(t *testing.T) {
	// install an M-mode trap handler, take an ecall from U-mode, return
	m := run(t, `
_start:
    la   t0, handler
    csrw mtvec, t0
    la   t1, umode
    csrw mepc, t1
    # mstatus.MPP = 0 (U)
    li   t2, 0x1800
    csrrc zero, mstatus, t2
    mret
umode:
    li   a7, 1234           # unknown syscall -> traps
    ecall
    ebreak                  # never reached
handler:
    csrr a0, mcause         # 8 = ecall from U
    li   a7, 93
    ecall
`)
	if m.ExitCode != isa.ExcEcallU {
		t.Fatalf("mcause = %d, want %d", m.ExitCode, isa.ExcEcallU)
	}
}

func TestSV39Translation(t *testing.T) {
	// Build page tables mapping VA 0x4000_0000 -> PA 0x1_0000, then run
	// code that stores through the virtual mapping from S-mode.
	p, err := asm.Assemble(`
_start:
    # enter S-mode at vcode
    la   t0, strap
    csrw mtvec, t0
    li   t1, 0x0800          # MPP = 01 (S)
    csrrs zero, mstatus, t1
    li   t1, 0x1000
    csrrc zero, mstatus, t1
    la   t2, scode
    csrw mepc, t2
    mret
scode:
    li   t0, 0x40000000
    li   t1, 77
    sd   t1, 0(t0)
    ld   a0, 0(t0)
    li   a7, 93
    ecall
strap:
    li   a0, -1
    li   a7, 93
    ecall
`, asm.Options{Base: 0x1000})
	if err != nil {
		t.Fatal(err)
	}
	memory := mem.NewMemory()
	p.LoadInto(memory)
	tb := mmu.NewTableBuilder(memory, 0x200000)
	// identity-map the code/stack region, map the virtual window
	if err := tb.IdentityMap(0, 0x100000, mmu.PteR|mmu.PteW|mmu.PteX, false); err != nil {
		t.Fatal(err)
	}
	if err := tb.Map(0x40000000, 0x10000, 12, mmu.PteR|mmu.PteW); err != nil {
		t.Fatal(err)
	}
	m := New(memory)
	m.PC = p.Entry
	m.X[2] = 0x80000
	m.SetCSR(isa.CSRSatp, tb.Satp(1))
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if !m.Halted || m.ExitCode != 77 {
		t.Fatalf("exit = %d halted=%v, want 77", m.ExitCode, m.Halted)
	}
	if got := memory.Read(0x10000, 8); got != 77 {
		t.Fatalf("physical backing = %d, want 77", got)
	}
}

func TestPageFaultDelegation(t *testing.T) {
	p, err := asm.Assemble(`
_start:
    la   t0, mtrap
    csrw mtvec, t0
    la   t0, strap
    csrw stvec, t0
    li   t1, 0xB000          # delegate page faults (12,13,15) to S
    csrw medeleg, t1
    li   t1, 0x0800
    csrrs zero, mstatus, t1
    li   t1, 0x1000
    csrrc zero, mstatus, t1
    la   t2, scode
    csrw mepc, t2
    mret
scode:
    li   t0, 0x7FFFF000      # unmapped -> load page fault
    ld   a0, 0(t0)
    ebreak
strap:
    csrr a0, scause          # 13
    li   a7, 93
    ecall
mtrap:
    li   a0, -1
    li   a7, 93
    ecall
`, asm.Options{Base: 0x1000})
	if err != nil {
		t.Fatal(err)
	}
	memory := mem.NewMemory()
	p.LoadInto(memory)
	tb := mmu.NewTableBuilder(memory, 0x200000)
	if err := tb.IdentityMap(0, 0x100000, mmu.PteR|mmu.PteW|mmu.PteX, false); err != nil {
		t.Fatal(err)
	}
	m := New(memory)
	m.PC = p.Entry
	m.X[2] = 0x80000
	m.SetCSR(isa.CSRSatp, tb.Satp(1))
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if m.ExitCode != isa.ExcLoadPageFault {
		t.Fatalf("scause = %d, want %d", m.ExitCode, isa.ExcLoadPageFault)
	}
}

func TestCompressedExecution(t *testing.T) {
	src := `
_start:
    li   a0, 0
    li   t0, 100
loop:
    addi a0, a0, 3
    addi t0, t0, -1
    bnez t0, loop
` + exitSeq
	for _, compress := range []bool{false, true} {
		p, err := asm.Assemble(src, asm.Options{Base: 0x1000, Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		m := New(mem.NewMemory())
		p.LoadInto(m.Mem)
		m.PC = p.Entry
		if err := m.Run(100000); err != nil {
			t.Fatal(err)
		}
		if m.ExitCode != 300 {
			t.Fatalf("compress=%v: exit = %d, want 300", compress, m.ExitCode)
		}
	}
}

func TestCSRCounters(t *testing.T) {
	m := run(t, `
_start:
    csrr t0, instret
    nop
    nop
    nop
    csrr t1, instret
    sub  a0, t1, t0       # 4 (3 nops + the csrr itself)
`+exitSeq)
	if m.ExitCode != 4 {
		t.Fatalf("instret delta = %d, want 4", m.ExitCode)
	}
}

func TestIllegalInstructionTraps(t *testing.T) {
	memory := mem.NewMemory()
	memory.Write(0x1000, 4, 0xFFFFFFFF) // illegal (not a valid encoding)
	m := New(memory)
	m.PC = 0x1000
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if !m.Halted || m.ExitCode != -(16+isa.ExcIllegalInst) {
		t.Fatalf("expected illegal-inst halt, got halted=%v code=%d", m.Halted, m.ExitCode)
	}
}

// TestWrittenRegsCoverChanges: every X or F register whose value a step
// changes is in the next TakeWrittenRegs, over every kernel at a small size,
// so the lock-step checker's per-commit compare, which reads only marked
// registers and what the core rebound, cannot miss a golden-model write.
// RestoreArch marks everything.
func TestWrittenRegsCoverChanges(t *testing.T) {
	for _, w := range workloads.All() {
		p, err := w.Program(2, true)
		if err != nil {
			t.Fatal(err)
		}
		m := New(mem.NewMemory())
		p.LoadInto(m.Mem)
		m.PC = p.Entry
		m.SetReg(isa.SP, 0x80000)
		m.TakeWrittenRegs()
		for steps := 0; !m.Halted && steps < 2_000_000; steps++ {
			x, f := m.X, m.F
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
			written := m.TakeWrittenRegs()
			for i := 0; i < 32; i++ {
				if m.X[i] != x[i] && written&(1<<i) == 0 {
					t.Fatalf("%s: step %d changed x%d unmarked", w.Name, steps, i)
				}
				if m.F[i] != f[i] && written&(1<<(32+i)) == 0 {
					t.Fatalf("%s: step %d changed f%d unmarked", w.Name, steps, i)
				}
			}
		}
		if !m.Halted {
			t.Fatalf("%s did not halt", w.Name)
		}
		m.RestoreArch(m.Snapshot())
		if got := m.TakeWrittenRegs(); got != ^uint64(0) {
			t.Fatalf("RestoreArch marked %#x, want every register", got)
		}
	}
}
