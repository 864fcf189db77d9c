package soc

import (
	"testing"

	"xt910/internal/asm"
	"xt910/internal/core"
	"xt910/internal/mem"
	"xt910/internal/workloads"
	"xt910/isa"
)

// Each reload case's first program ends by leaving behind state a program
// can observe through an instruction; its second program observes it. The
// first programs live at firstBase, away from the second's image, so the
// second's fetches miss the caches as a fresh system's do and a clock read
// reads alike.
const firstBase = 0x10000

// exitA0 ends a hart with a0 as its exit code.
const exitA0 = `
    li   a7, 93
    ecall
`

var reloadCases = []struct {
	name          string
	harts         int
	first, second string
	// programs, when set, builds both images instead of first and second
	programs func() (first, second *asm.Program, err error)
}{
	{name: "trap vector", harts: 1,
		first: `
    la   t0, handler
    csrw mtvec, t0
    li   a0, 0` + exitA0 + `
handler:
    li   a0, 55` + exitA0,
		second: `
    ebreak
    li   a0, 0` + exitA0},
	{name: "memory outside the image", harts: 1,
		first: `
    li   t0, 0x20000
    li   t1, 77
    sd   t1, 0(t0)
    li   a0, 0` + exitA0,
		second: `
    li   t0, 0x20000
    ld   a0, 0(t0)` + exitA0},
	{name: "mscratch", harts: 1,
		first: `
    li   t0, 77
    csrw mscratch, t0
    li   a0, 0` + exitA0,
		second: `
    csrr a0, mscratch` + exitA0},
	{name: "privilege level", harts: 1,
		first: `
    li   t0, 0x1800
    csrrc zero, mstatus, t0
    li   t0, 0x800       # mstatus.MPP = S
    csrrs zero, mstatus, t0
    la   t0, smode
    csrw mepc, t0
    mret
smode:
    li   a0, 0` + exitA0,
		second: `
    li   a7, 12345       # no such host call: an ecall trap with no handler
    ecall`},
	{name: "cycle counter", harts: 1,
		first: `
    li   t0, 300
spin:
    addi t0, t0, -1
    bnez t0, spin
    li   a0, 0` + exitA0,
		second: `
    csrr a0, cycle` + exitA0},
	{name: "vector registers", harts: 1,
		first: `
    li   t0, 4
    vsetvli t0, t0, e32, m1
    li   t0, 77
    vmv.v.x v1, t0
    li   a0, 0` + exitA0,
		second: `
    vmv.x.s a0, v1
    csrr t0, vl
    add  a0, a0, t0` + exitA0},
	{name: "armed CLINT", harts: 2,
		first: `
    csrr t0, mhartid
    bnez t0, done
    li   t1, 0x02000004  # msip[1]
    li   t2, 1
    sw   t2, 0(t1)
    li   t1, 0x02004000  # mtimecmp[0]
    sd   zero, 0(t1)
done:
    li   a0, 0` + exitA0,
		second: `
    la   t0, handler
    csrw mtvec, t0
    li   t0, 0x88        # MSIE | MTIE
    csrw mie, t0
    li   t0, 0x8         # mstatus.MIE
    csrrs zero, mstatus, t0
    li   t0, 200
spin:
    addi t0, t0, -1
    bnez t0, spin
    li   a0, 0` + exitA0 + `
handler:
    li   a0, 55` + exitA0},
	{name: "coremark then ai-dot-scalar", harts: 1,
		programs: func() (*asm.Program, *asm.Program, error) {
			first, err := workloads.CoreMark.Program(1, true)
			if err != nil {
				return nil, nil, err
			}
			second, err := workloads.AIDotScalar.Program(1, true)
			return first, second, err
		}},
}

// TestReloadMatchesFresh runs a second program on a System that has already
// run a first one and compares what a fresh System running the second program
// alone gives: per hart the exit code, the output, the Stats fields that count
// retired work and the registers and CSRs it ends with, and all of memory.
// After each load mtime and the hpm counters read 0, and each hart's
// Stats.Cycles and mcycle count from the load.
func TestReloadMatchesFresh(t *testing.T) {
	for _, tc := range reloadCases {
		t.Run(tc.name, func(t *testing.T) {
			first, second, err := reloadPrograms(tc.first, tc.second, tc.programs)
			if err != nil {
				t.Fatal(err)
			}
			cfg := smpConfig(tc.harts, 1)
			fresh := runLoaded(t, cfg, nil, second)
			reused := runLoaded(t, cfg, first, second)
			for h, want := range fresh.Cores {
				if got, want := reloadOutcome(reused.Cores[h]), reloadOutcome(want); got != want {
					t.Errorf("hart %d after a first program: %+v; on a fresh system: %+v", h, got, want)
				}
			}
			if pa, differ := memoryDiff(reused.Mem, fresh.Mem); differ {
				t.Errorf("after a first program memory at %#x holds %#x; on a fresh system %#x",
					pa, reused.Mem.LoadByte(pa), fresh.Mem.LoadByte(pa))
			}
		})
	}
}

func reloadPrograms(first, second string, programs func() (*asm.Program, *asm.Program, error)) (*asm.Program, *asm.Program, error) {
	if programs != nil {
		return programs()
	}
	p1, err := asm.Assemble(first, asm.Options{Base: firstBase})
	if err != nil {
		return nil, nil, err
	}
	p2, err := asm.Assemble(second, asm.Options{Base: 0x1000})
	return p1, p2, err
}

// runLoaded runs each of progs to its halt on one new System, loaded in
// turn, and returns the System.
func runLoaded(t *testing.T, cfg Config, progs ...*asm.Program) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		if p == nil {
			continue
		}
		s.LoadProgram(p)
		if mtime := s.CLINT.MTime(); mtime != 0 {
			t.Errorf("mtime %d after the load", mtime)
		}
		start := make([]uint64, len(s.Cores))
		for h, c := range s.Cores {
			start[h] = c.Now()
			for num := isa.CSRMhpmcounter3; num <= isa.CSRMhpmcounter12; num++ {
				if v := c.CSR(num); v != 0 {
					t.Errorf("hart %d: %s reads %d after the load", h, isa.CSRName(num), v)
				}
			}
		}
		s.Run(50_000_000)
		if !s.AllHalted() {
			t.Fatal("did not halt")
		}
		for h, c := range s.Cores {
			if c.Stats.Cycles != c.Now()-start[h] {
				t.Errorf("hart %d: Stats.Cycles %d, but its clock moved %d since the load", h, c.Stats.Cycles, c.Now()-start[h])
			}
			if mcycle := c.CSR(isa.CSRMcycle); mcycle != c.Stats.Cycles {
				t.Errorf("hart %d: mcycle %d, but Stats.Cycles %d", h, mcycle, c.Stats.Cycles)
			}
		}
	}
	return s
}

// outcome is what a hart's run shows of it, timing aside: its exit, output
// and retired-work counts, and the registers and CSRs it ends with.
type outcome struct {
	Exit                                                int
	Output                                              string
	Retired, Stores, Atomics, Traps, Interrupts, VecOps uint64
	Regs                                                [isa.NumXRegs + isa.NumFRegs]uint64
	CSRs                                                [len(endCSRs)]uint64
}

// endCSRs are the CSRs a run's end is compared on: the trap and translation
// set-up and the vector configuration, none of them a clock.
var endCSRs = [...]uint16{isa.CSRMstatus, isa.CSRMtvec, isa.CSRMepc, isa.CSRMcause, isa.CSRMtval,
	isa.CSRMscratch, isa.CSRMie, isa.CSRMedeleg, isa.CSRSatp, isa.CSRFcsr, isa.CSRVl, isa.CSRVtype}

func reloadOutcome(c *core.Core) outcome {
	st := &c.Stats
	o := outcome{Exit: c.ExitCode, Output: string(c.Output), Retired: st.Retired, Stores: st.Stores,
		Atomics: st.Atomics, Traps: st.Traps, Interrupts: st.Interrupts, VecOps: st.VecOps}
	for r := range o.Regs {
		o.Regs[r] = c.Reg(isa.Reg(r))
	}
	for i, num := range endCSRs {
		o.CSRs[i] = c.CSR(num)
	}
	return o
}

// memoryDiff returns an address at which a and b hold different bytes; a
// page one of them never touched reads as zeros.
func memoryDiff(a, b *mem.Memory) (pa uint64, differ bool) {
	as, bs := a.Snapshot(), b.Snapshot()
	page := func(pages map[uint64][]byte, pn uint64) []byte {
		if p, ok := pages[pn]; ok {
			return p
		}
		return make([]byte, mem.PageSize)
	}
	for _, pages := range []map[uint64][]byte{as, bs} {
		for pn := range pages {
			x, y := page(as, pn), page(bs, pn)
			for i := range x {
				if x[i] != y[i] {
					return pn*mem.PageSize + uint64(i), true
				}
			}
		}
	}
	return 0, false
}
