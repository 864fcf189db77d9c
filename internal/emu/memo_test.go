package emu

import (
	"fmt"
	"strings"
	"testing"

	"xt910/internal/asm"
	"xt910/internal/mem"
	"xt910/internal/mmu"
	"xt910/internal/recycle"
	"xt910/internal/workloads"
	"xt910/isa"
)

// smcProgram executes the instruction at site, overwrites it with the one at
// donor through the address in t0 plus storeOffset, and executes it again —
// with no fence.i, which the golden model has never needed. a0 sums what the
// two executions produced: 12 from the add, -2 from the sub.
func smcProgram(storeOffset uint64) string {
	return fmt.Sprintf(`
_start:
    li   a0, 0
    li   a1, 5
    li   a2, 7
    li   s0, 0
    la   t0, site
    li   t3, %d
    add  t0, t0, t3
    la   t1, donor
    lw   t2, 0(t1)
again:
site:
    add  a3, a1, a2
    add  a0, a0, a3
    bnez s0, done
    li   s0, 1
    sw   t2, 0(t0)
    j    again
done:
    li   a7, 93
    ecall
donor:
    sub  a3, a1, a2
`, storeOffset)
}

// straightSMCProgram runs one stretch of straight-line code twice: a store,
// pad more instructions, then site. The first pass stores site's own word
// back, so that the memo holds it decoded; the second stores the donor's over
// it, with no branch between the store and site — and no fence.i. a0 sums
// what site produced: 12 from the add, then -2 from the sub, so the exit code
// is 10; a machine that executed its stale slot would exit with 24.
func straightSMCProgram(pad int) string {
	return fmt.Sprintf(`
_start:
    li   a0, 0
    li   a1, 5
    li   a2, 7
    li   s0, 0
    la   t0, site
    lw   t2, 0(t0)
    la   t1, donor
    lw   t3, 0(t1)
    j    again
again:
    sw   t2, 0(t0)
%ssite:
    add  a3, a1, a2
    add  a0, a0, a3
    bnez s0, done
    li   s0, 1
    mv   t2, t3
    j    again
done:
    li   a7, 93
    ecall
donor:
    sub  a3, a1, a2
`, strings.Repeat("    addi a4, a4, 1\n", pad))
}

// TestMemoNeverServesStaleBytes: an instruction that has executed, and so sits
// decoded in the memo, is overwritten in memory; its next execution runs the
// new bytes, as it does on a machine with no memo at all — whether the store
// came from the program itself (the instruction just before it, one further
// up the same straight-line code, or across a branch), through a second
// virtual alias of the code page, or from another machine sharing the memory.
// Nor does the page fetch reads from while translation is off, and holds
// between calls: whatever allocates, replaces or rewrites it, or turns
// translation on, the next fetch answers as a fresh decode of the bytes in
// memory does.
func TestMemoNeverServesStaleBytes(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("self/rvc=%v", compress), func(t *testing.T) {
			p, err := asm.Assemble(smcProgram(0), asm.Options{Base: 0x1000, Compress: compress})
			if err != nil {
				t.Fatal(err)
			}
			m := New(mem.NewMemory())
			p.LoadInto(m.Mem)
			m.PC = p.Entry
			runToExit(t, m, 10)
		})
	}

	for _, pad := range []int{0, 3} {
		for _, compress := range []bool{false, true} {
			t.Run(fmt.Sprintf("straight line/pad=%d/rvc=%v", pad, compress), func(t *testing.T) {
				p, err := asm.Assemble(straightSMCProgram(pad), asm.Options{Base: 0x1000, Compress: compress})
				if err != nil {
					t.Fatal(err)
				}
				m := New(mem.NewMemory())
				p.LoadInto(m.Mem)
				m.PC = p.Entry
				runToExit(t, m, 10)
			})
		}
	}

	t.Run("alias", func(t *testing.T) {
		const alias = 0x40000000
		p, err := asm.Assemble(smcProgram(alias), asm.Options{Base: 0x1000, Compress: true})
		if err != nil {
			t.Fatal(err)
		}
		m := New(mem.NewMemory())
		p.LoadInto(m.Mem)
		tb, err := mmu.IdentityPlusOffset(m.Mem, 0x100000, 0x80000, alias)
		if err != nil {
			t.Fatal(err)
		}
		m.SetCSR(isa.CSRSatp, tb.Satp(0))
		m.SetPrivilege(isa.PrivS)
		m.PC = p.Entry
		runToExit(t, m, 10)
	})

	t.Run("other machine", func(t *testing.T) {
		shared := mem.NewMemory()
		loop, err := asm.Assemble("_start:\nsite:\n    addi a0, a1, 1\n    j site\n", asm.Options{Base: 0x1000})
		if err != nil {
			t.Fatal(err)
		}
		patcher, err := asm.Assemble("_start:\n    sw t1, 0(t0)\n    li a7, 93\n    ecall\n", asm.Options{Base: 0x3000})
		if err != nil {
			t.Fatal(err)
		}
		loop.LoadInto(shared)
		patcher.LoadInto(shared)
		m := New(shared)
		m.PC = loop.Entry
		for i := 0; i < 6; i++ { // site executes three times
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if m.X[10] != 1 {
			t.Fatalf("a0 = %d before the patch, want 1", m.X[10])
		}
		raw, err := isa.Encode(isa.Inst{Op: isa.ADDI, Rd: isa.X(10), Rs1: isa.X(11), Rs2: isa.RegNone, Rs3: isa.RegNone, Imm: 2, Size: 4})
		if err != nil {
			t.Fatal(err)
		}
		other := New(shared)
		other.PC = patcher.Entry
		other.X[5], other.X[6] = loop.Symbols["site"], uint64(raw)
		runToExit(t, other, 0)
		for i := 0; i < 2; i++ {
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if m.X[10] != 2 {
			t.Fatalf("a0 = %d after another machine patched the loop, want 2", m.X[10])
		}
	})

	addi := func(imm int64) uint64 { return encode(t, isa.ADDI, isa.A0, isa.A1, imm) }

	t.Run("untouched page, then written", func(t *testing.T) {
		m := New(mem.NewMemory())
		wantFetch(t, m, 0x5000, 0x5000) // reads as zero: no page to hold
		m.Mem.Write(0x5000, 4, addi(1))
		wantFetch(t, m, 0x5000, 0x5000)
		m.Mem.Write(0x5000, 4, addi(2)) // now through the held page
		wantFetch(t, m, 0x5000, 0x5000)
	})

	t.Run("restored snapshot", func(t *testing.T) {
		m := New(mem.NewMemory())
		m.Mem.Write(0x1000, 4, addi(1))
		snap := m.Mem.Snapshot()
		m.Mem.Write(0x1000, 4, addi(2))
		wantFetch(t, m, 0x1000, 0x1000)
		m.Mem.RestoreSnapshot(snap) // new page arrays: the held one is not the memory's
		wantFetch(t, m, 0x1000, 0x1000)
	})

	t.Run("recycled memory", func(t *testing.T) {
		m := New(mem.NewMemory())
		m.Mem.Write(0x1000, 4, addi(1))
		wantFetch(t, m, 0x1000, 0x1000)
		m.Mem.Release() // the held page goes to the next memory
		other := mem.NewMemory()
		other.Write(0x1000, 4, addi(3))
		wantFetch(t, m, 0x1000, 0x1000) // empty: a zero word, not the other memory's
		m.Mem = other
		wantFetch(t, m, 0x1000, 0x1000)
	})

	t.Run("another memory", func(t *testing.T) {
		m := New(mem.NewMemory())
		m.Mem.Write(0x1000, 4, addi(1))
		wantFetch(t, m, 0x1000, 0x1000)
		m.Mem = mem.NewMemory() // as young as the first: only its identity differs
		m.Mem.Write(0x1000, 4, addi(4))
		wantFetch(t, m, 0x1000, 0x1000)
	})

	t.Run("straddling a page end", func(t *testing.T) {
		m := New(mem.NewMemory())
		m.Mem.Write(0x1ffe, 4, addi(1))
		wantFetch(t, m, 0x1ffc, 0x1ffc) // holds the first page
		wantFetch(t, m, 0x1ffe, 0x1ffe)
		m.Mem.Write(0x2000, 2, addi(5)>>16) // the upper half, on the next page
		wantFetch(t, m, 0x1ffe, 0x1ffe)
		wantFetch(t, m, 0x2000, 0x2000) // holds the second page
		m.Mem.Write(0x1ffe, 2, addi(7))
		wantFetch(t, m, 0x1ffe, 0x1ffe)
	})

	t.Run("SV39 against M-mode on the same page", func(t *testing.T) {
		m := New(mem.NewMemory())
		tb := mmu.NewTableBuilder(m.Mem, 0x100000)
		if err := tb.Map(0x5000, 0x1000, 12, mmu.PteR|mmu.PteX); err != nil {
			t.Fatal(err)
		}
		m.Mem.Write(0x5000, 4, addi(1))
		m.Mem.Write(0x1000, 4, addi(2))
		wantFetch(t, m, 0x5000, 0x5000) // M-mode holds physical page 0x5000
		m.SetPrivilege(isa.PrivS)
		wantFetch(t, m, 0x5000, 0x5000) // bare satp: still untranslated
		m.SetCSR(isa.CSRSatp, tb.Satp(0))
		wantFetch(t, m, 0x5000, 0x1000) // SV39 maps it to 0x1000
		m.SetPrivilege(isa.PrivM)
		wantFetch(t, m, 0x5000, 0x5000)
	})
}

// encode assembles one instruction word.
func encode(t *testing.T, op isa.Op, rd, rs1 isa.Reg, imm int64) uint64 {
	t.Helper()
	raw, err := isa.Encode(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: isa.RegNone, Rs3: isa.RegNone, Imm: imm, Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	return uint64(raw)
}

// wantFetch checks that fetching va gives what a fresh decode of the bytes at
// pa, read through the memory, gives.
func wantFetch(t *testing.T, m *Machine, va, pa uint64) {
	t.Helper()
	want := isa.Decode16(uint16(m.Mem.Read(pa, 2)))
	if raw := uint32(m.Mem.Read(pa, 4)); raw&3 == 3 {
		want = isa.Decode(raw)
	}
	got, err := m.Fetch(va)
	if err != nil {
		t.Fatalf("fetch %#x: %v", va, err)
	}
	if got != want {
		t.Fatalf("fetch %#x = %v, a fresh decode of %#x gives %v", va, got, pa, want)
	}
}

func runToExit(t *testing.T, m *Machine, want int) {
	t.Helper()
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if !m.Halted || m.ExitCode != want {
		t.Fatalf("halted=%v exit=%d, want exit %d", m.Halted, m.ExitCode, want)
	}
}

// TestMemoHitRateCoremark: a kernel misses the memo on the first execution of
// each instruction and, its loops being far smaller than the table, on
// nothing else. A hit leaves its slot as it was; a miss rewrites it.
func TestMemoHitRateCoremark(t *testing.T) {
	p, err := workloads.CoreMark.Program(workloads.CoreMark.DefaultIters, true)
	if err != nil {
		t.Fatal(err)
	}
	m := New(mem.NewMemory())
	p.LoadInto(m.Mem)
	m.PC = p.Entry
	m.X[2] = 0x80000
	var hits, fetches uint64
	for !m.Halted {
		if fetches > 100_000_000 {
			t.Fatal("coremark did not halt")
		}
		slot := m.memoSlot(m.PC) // M-mode: the PC is the physical address
		before := *slot
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		fetches++
		if before.inst.Size != 0 && *slot == before {
			hits++
		}
	}
	rate := float64(hits) / float64(fetches)
	t.Logf("memo hit rate %.5f over %d fetches", rate, fetches)
	if rate < 0.99 {
		t.Fatalf("memo hit rate %.5f, want at least 0.99", rate)
	}
}

// TestSoftTLBHonoursPrivilege: a translation the soft TLB cached at one
// privilege must not answer for another that the page table denies. Cold, the
// walk refuses both accesses below; warm, the hit must too.
func TestSoftTLBHonoursPrivilege(t *testing.T) {
	const sPage, uPage = 0x4000, 0x5000
	build := func() *Machine {
		m := New(mem.NewMemory())
		tb := mmu.NewTableBuilder(m.Mem, 0x100000)
		if err := tb.Map(sPage, sPage, 12, mmu.PteR|mmu.PteW); err != nil {
			t.Fatal(err)
		}
		if err := tb.Map(uPage, uPage, 12, mmu.PteR|mmu.PteX|mmu.PteU); err != nil {
			t.Fatal(err)
		}
		m.SetCSR(isa.CSRSatp, tb.Satp(0))
		return m
	}
	wantTrap := func(t *testing.T, err error, cause int, tval uint64) {
		t.Helper()
		te, ok := err.(*trapError)
		if !ok || te.cause != cause || te.tval != tval {
			t.Fatalf("got %v, want a trap with cause %d tval %#x", err, cause, tval)
		}
	}

	t.Run("S-only page from U after an S touch", func(t *testing.T) {
		m := build()
		m.SetPrivilege(isa.PrivU)
		_, err := m.load(sPage, 8)
		wantTrap(t, err, isa.ExcLoadPageFault, sPage) // cold
		m.SetPrivilege(isa.PrivS)
		if _, err := m.load(sPage, 8); err != nil {
			t.Fatalf("S-mode load: %v", err)
		}
		m.SetPrivilege(isa.PrivU)
		_, err = m.load(sPage, 8)
		wantTrap(t, err, isa.ExcLoadPageFault, sPage)
	})

	t.Run("U page fetched from S after a U fetch", func(t *testing.T) {
		m := build()
		m.SetPrivilege(isa.PrivS)
		_, err := m.Fetch(uPage)
		wantTrap(t, err, isa.ExcInstPageFault, uPage) // cold
		m.SetPrivilege(isa.PrivU)
		if _, err := m.Fetch(uPage); err != nil {
			t.Fatalf("U-mode fetch: %v", err)
		}
		m.SetPrivilege(isa.PrivS)
		_, err = m.Fetch(uPage)
		wantTrap(t, err, isa.ExcInstPageFault, uPage)
	})
}

// TestReleaseZeroesTables: a released machine's soft TLB and decode memo go to
// the next machine in the state a new one has them in.
func TestReleaseZeroesTables(t *testing.T) {
	recycle.Drain()
	m := New(mem.NewMemory())
	tb, err := mmu.IdentityPlusOffset(m.Mem, 0x100000, 0x80000, 0x40000000)
	if err != nil {
		t.Fatal(err)
	}
	m.SetCSR(isa.CSRSatp, tb.Satp(0))
	m.SetPrivilege(isa.PrivS)
	m.Mem.Write(0x1000, 4, 0x00a00513) // li a0, 10
	if _, err := m.Fetch(0x1000); err != nil {
		t.Fatal(err)
	}
	if _, err := m.load(0x40002000, 8); err != nil {
		t.Fatal(err)
	}
	tab := m.tab
	if *tab == (tables{}) {
		t.Fatal("the run left both tables empty; the test checks nothing")
	}
	m.Release()
	if *tab != (tables{}) {
		t.Fatal("Release left a dirty table behind")
	}
	if next := New(mem.NewMemory()); next.tab != tab {
		t.Fatal("the next machine did not pick the released tables up")
	}
}
