package core

import (
	"strings"
	"testing"

	"xt910/internal/asm"
	"xt910/internal/cache"
	"xt910/internal/coherence"
	"xt910/internal/mem"
	"xt910/internal/trace"
	"xt910/isa"
)

// ffStallProgram leans on every stall source the fast-forward path must
// model: cache-missing strided loads, the unpipelined divider, dependent FP
// latency chains, split stores, and a data-dependent branch the predictor
// gets wrong often enough to exercise recovery windows.
const ffStallProgram = `
_start:
    li   t0, 400
    li   a0, 0
    li   a1, 0x20000
    li   a2, 0
    fcvt.d.w fa0, t0
    fcvt.d.w fa1, a0
loop:
    slli t1, a2, 8          # 256-byte stride: L1D misses
    add  t1, t1, a1
    ld   t2, 0(t1)
    add  a0, a0, t2
    divu t3, a0, t0         # unpipelined divider stall
    sd   t3, 8(t1)
    fmul.d fa1, fa1, fa0    # dependent FP chain
    fadd.d fa1, fa1, fa0
    andi t4, a0, 7          # data-dependent branch
    beqz t4, skip
    addi a0, a0, 1
skip:
    addi a2, a2, 1
    addi t0, t0, -1
    bnez t0, loop
    andi a0, a0, 255
    li   a7, 93
    ecall
`

// ffChaseProgram serializes the whole machine: each load's address depends
// on the previous load's result (the loads return 0, so the 4 KiB stride
// keeps missing cold lines), and the unpipelined divider sits on the same
// chain. Once the ROB fills, nearly every cycle is a head-stall window the
// fast-forward path should elide.
const ffChaseProgram = `
_start:
    li   t0, 150
    li   a1, 0x40000
    li   a0, 0
loop:
    ld   t2, 0(a1)
    add  a1, a1, t2
    divu t3, a1, t0
    add  a0, a0, t3
    addi a1, a1, 2040
    addi a1, a1, 2040
    addi t0, t0, -1
    bnez t0, loop
    andi a0, a0, 255
    li   a7, 93
    ecall
`

// ffMissALUProgram misses DRAM once per iteration (a fresh 4 KiB page each
// time) with the load's use right behind it and independent ALU work behind
// that. In order, nothing younger than the use issues during a miss although
// the ALU work's sources are ready, so nearly every cycle is idle.
const ffMissALUProgram = `
_start:
    li   t0, 200
    li   a1, 0x40000
    li   a0, 0
    li   a5, 4096
loop:
    ld   t2, 0(a1)
    add  a0, a0, t2
    add  a1, a1, a5
    addi a2, a2, 1
    xor  a3, a3, a2
    slli a4, a2, 3
    addi t0, t0, -1
    bnez t0, loop
    andi a0, a0, 255
    li   a7, 93
    ecall
`

// ffColdCodeProgram is frontend-bound: 1500 distinct instructions run once,
// straight through a cold I-cache, so the ROB sits empty waiting on one line
// fill after another.
var ffColdCodeProgram = "_start:\n" + strings.Repeat("    addi a0, a0, 3\n    xor a1, a1, a0\n", 750) +
	"    andi a0, a1, 255\n    li a7, 93\n    ecall\n"

// ffArmMasked attaches an interrupt source whose timer bit is always pending
// and enabled in mie, but never deliverable: the programs below run in M-mode
// with mstatus.MIE clear.
func ffArmMasked(c *Core) {
	c.IntSource = func(int) uint64 { return 1 << isa.IntMTimer }
	c.SetCSR(isa.CSRMie, 1<<isa.IntMTimer)
}

// ffDriven passes time the way soc.System.Advance does — the NextEvent/
// AdvanceIdle pair with no refusal — vouching for the devices Run does not
// model.
func ffDriven(c *Core, maxCycles uint64) {
	for !c.Halted && c.now < maxCycles {
		if next := c.NextEvent(); next > c.now {
			c.AdvanceIdle(min(next, maxCycles))
		} else {
			c.Step()
		}
	}
}

// ffRunTraced runs src with the given config and a tracer attached, after
// setup (if any) and by drive (Run if nil), verifying the CPI stack still
// partitions total cycles exactly (the two-level tree invariant) and that the
// per-PC table reconciles with it.
func ffRunTraced(t *testing.T, cfg Config, src string, setup func(*Core), drive func(*Core, uint64)) (*Core, *trace.Tracer) {
	t.Helper()
	p, err := asm.Assemble(src, asm.Options{Base: 0x1000, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	memory := mem.NewMemory()
	dram := mem.NewDRAM()
	l2 := coherence.NewL2(cache.Config{
		SizeBytes: 2 << 20, Ways: 16, LineBytes: 64, HitLatency: 10, ECC: true, Parity: true,
	}, dram)
	c := New(cfg, 0, memory, l2)
	tr := trace.New(trace.Config{SampleEvery: 1 << 62}) // CPI stack only
	c.AttachTracer(tr)
	p.LoadInto(memory)
	c.Reset(p.Entry, 0x80000)
	if setup != nil {
		setup(c)
	}
	if drive == nil {
		drive = (*Core).Run
	}
	drive(c, 20_000_000)
	if !c.Halted {
		t.Fatalf("core did not halt: %s", c.Stats.String())
	}
	if err := tr.CPI().Check(c.Stats.Cycles); err != nil {
		t.Fatal(err)
	}
	if err := tr.PCs().Check(tr.CPI()); err != nil {
		t.Fatal(err)
	}
	return c, tr
}

// pcRows flattens a per-PC table into its full sorted row set for equality
// comparison.
func pcRows(pcs *trace.PCStack) []trace.PCEntry {
	rows, other := pcs.TopN(pcs.Len())
	if other.Total() > 0 {
		rows = append(rows, other)
	}
	return rows
}

// TestFastForwardStatsIdentity is the satellite-2 invariant: fast-forward is
// a pure host optimization, so every Stats field, the exit code, every
// CPI-stack bucket — both levels of the tree, sub-buckets included — and the
// whole per-PC attribution table must be byte-identical with it on and off,
// on both the out-of-order and the in-order machine. The cold-code run sits
// in empty-ROB frontend windows; the armed runs carry a pending-but-masked
// interrupt source, which Run must refuse to skip under (it has no device
// model to vouch for) and a vouching driver (ffDriven) skips under all the same.
func TestFastForwardStatsIdentity(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"xt910", XT910Config()},
		{"u74", U74Config()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, run := range []struct {
				name   string
				src    string
				setup  func(*Core)
				drive  func(*Core, uint64)
				elides func(FFStats, Stats) bool // what the fast-forward arm must have skipped
			}{
				{"stall", ffStallProgram, nil, nil, func(ff FFStats, _ Stats) bool { return ff.Elided() > 0 }},
				{"chase", ffChaseProgram, nil, nil, func(ff FFStats, _ Stats) bool { return ff.Backend > 0 }},
				{"miss-alu", ffMissALUProgram, nil, nil, func(ff FFStats, st Stats) bool { return ff.Elided() > st.Cycles*2/3 }},
				{"selfmod", selfModifyingProgram, nil, nil, func(ff FFStats, _ Stats) bool { return ff.Elided() > 0 }},
				{"coldcode", ffColdCodeProgram, nil, nil, func(ff FFStats, st Stats) bool { return ff.Frontend > st.Cycles/2 && ff.Armed == 0 }},
				{"armed-run", ffChaseProgram, ffArmMasked, nil, func(ff FFStats, _ Stats) bool { return ff == FFStats{} }},
				{"armed-driven", ffChaseProgram, ffArmMasked, ffDriven, func(ff FFStats, st Stats) bool { return ff.Armed == ff.Elided() && ff.Armed > st.Cycles/10 }},
				{"armed-driven-coldcode", ffColdCodeProgram, ffArmMasked, ffDriven, func(ff FFStats, st Stats) bool { return ff.Armed == ff.Elided() && ff.Frontend > st.Cycles/2 }},
			} {
				on := tc.cfg
				on.FastForward = true
				off := tc.cfg
				off.FastForward = false
				cOn, trOn := ffRunTraced(t, on, run.src, run.setup, run.drive)
				cOff, trOff := ffRunTraced(t, off, run.src, run.setup, run.drive)
				if ff := cOn.FastForwardStats(); !run.elides(ff, cOn.Stats) {
					t.Fatalf("%s: fast-forward elided %+v of %d cycles", run.name, ff, cOn.Stats.Cycles)
				}
				if ff := cOff.FastForwardStats(); ff != (FFStats{}) {
					t.Fatalf("%s: skipped %+v with Cfg.FastForward off", run.name, ff)
				}
				if cOn.Stats.Interrupts != 0 {
					t.Fatalf("%s: a masked interrupt was delivered", run.name)
				}
				if cOn.ExitCode != cOff.ExitCode {
					t.Fatalf("%s: fast-forward changed the exit code: %d vs %d",
						run.name, cOn.ExitCode, cOff.ExitCode)
				}
				if cOn.Stats != cOff.Stats {
					t.Fatalf("%s: fast-forward changed stats:\n on: %+v\noff: %+v",
						run.name, cOn.Stats, cOff.Stats)
				}
				if *trOn.CPI() != *trOff.CPI() {
					t.Fatalf("%s: fast-forward changed the CPI stack:\n on: %v\noff: %v",
						run.name, trOn.CPI(), trOff.CPI())
				}
				rowsOn, rowsOff := pcRows(trOn.PCs()), pcRows(trOff.PCs())
				if len(rowsOn) != len(rowsOff) {
					t.Fatalf("%s: fast-forward changed the per-PC table size: %d vs %d",
						run.name, len(rowsOn), len(rowsOff))
				}
				for i := range rowsOn {
					if rowsOn[i] != rowsOff[i] {
						t.Fatalf("%s: fast-forward changed per-PC row %d:\n on: %+v\noff: %+v",
							run.name, i, rowsOn[i], rowsOff[i])
					}
				}
			}
		})
	}
}

// TestPerPCAttributionPointerChase pins the per-PC attribution on a kernel
// built to have one culprit: in the pointer chase every stall funnels
// through the dependent load, so the hottest PC must hold the majority of
// the backend-mem cycles, and the mem sub-buckets must blame DRAM (the 4 KiB
// stride misses cold lines every iteration), not the L1 array.
func TestPerPCAttributionPointerChase(t *testing.T) {
	c, tr := ffRunTraced(t, XT910Config(), ffChaseProgram, nil, nil)
	cpi := tr.CPI()
	memCycles := cpi.Buckets[trace.CycleBackendMem]
	if memCycles < c.Stats.Cycles/4 {
		t.Fatalf("chase kernel is not memory-bound (%d of %d cycles); the fixture regressed",
			memCycles, c.Stats.Cycles)
	}
	rows, _ := tr.PCs().TopN(1)
	if len(rows) == 0 {
		t.Fatal("no per-PC rows recorded")
	}
	top := rows[0]
	if top.Buckets[trace.CycleBackendMem]*2 < memCycles {
		t.Errorf("top PC 0x%x holds %d of %d backend-mem cycles; want a dominant load PC",
			top.PC, top.Buckets[trace.CycleBackendMem], memCycles)
	}
	if top.Buckets[trace.CycleBackendMem]*2 < top.Total() {
		t.Errorf("top PC 0x%x is not mem-dominated: %+v", top.PC, top.Buckets)
	}
	dram := cpi.Subs[trace.SubMemDRAM]
	if dram*2 < memCycles {
		t.Errorf("DRAM sub-bucket holds %d of %d mem cycles; cold-miss chase should blame DRAM",
			dram, memCycles)
	}
}

// TestFastForwardActuallySkips guards against the skip silently never
// engaging — a regression there would leave the identity test vacuously
// green. The host-side skip counter (kept out of Stats on purpose) must
// cover a meaningful share of the stall-heavy kernel's cycles, and a
// truncated budget must clamp exactly at the boundary (skips never overshoot
// the Run target).
func TestFastForwardActuallySkips(t *testing.T) {
	cfg := XT910Config()
	cfg.FastForward = true
	c := runCore(t, cfg, ffChaseProgram)
	ff := c.FastForwardStats()
	if ff.Windows == 0 || ff.Elided() == 0 {
		t.Fatal("fast-forward never engaged on the stall-heavy kernel")
	}
	if ff.Elided() < c.Stats.Cycles/10 || ff.Backend < ff.Frontend || ff.Armed != 0 {
		t.Fatalf("fast-forward elided %+v of %d cycles; want over a tenth, mostly behind a stalled head, no interrupt source",
			ff, c.Stats.Cycles)
	}
	c2, memory := buildCore(cfg)
	p, err := asm.Assemble(ffChaseProgram, asm.Options{Base: 0x1000})
	if err != nil {
		t.Fatal(err)
	}
	p.LoadInto(memory)
	c2.Reset(p.Entry, 0x80000)
	budget := c.Stats.Cycles / 2
	c2.Run(budget)
	if c2.Halted {
		t.Fatal("half the cycle budget must not finish the kernel")
	}
	if c2.Stats.Cycles != budget {
		t.Fatalf("truncated run missed its budget boundary: %d cycles, want %d",
			c2.Stats.Cycles, budget)
	}
}
