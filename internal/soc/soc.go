// Package soc assembles XT-910 cores into the paper's multi-core topology
// (§VI): one to four cores per cluster sharing an inclusive L2 with MOSEI
// coherence and a snoop filter, and up to four clusters joined by an
// Ncore-style interconnect. It is the one place a machine is built, and
// System.Advance its one clock. Cores step in deterministic lock-step, so
// every simulation is exactly reproducible.
package soc

import (
	"context"

	"xt910/internal/asm"
	"xt910/internal/cache"
	"xt910/internal/coherence"
	"xt910/internal/core"
	"xt910/internal/mem"
	"xt910/internal/trace"
	"xt910/isa"
)

// Config sizes a system (Table I bounds are enforced by Validate).
type Config struct {
	CoresPerCluster int // 1, 2 or 4
	Clusters        int // 1–4
	Core            core.Config
	L2SizeBytes     int // 256 KB – 8 MB per cluster
	L2Ways          int // 8 or 16
	L2HitLatency    int // L2 array hit latency in cycles (0: coherence.StockHitLatency)
	DRAMLatency     int // CPU cycles (§X uses ~200)
	DRAMGap         int

	// StackBase/StackSize place each hart's stack.
	StackBase uint64
	StackSize uint64
}

// maxHarts is four clusters of four cores (Table I).
const maxHarts = 16

// DefaultConfig is the stock machine the harness's tables, cosim sessions and
// the facade measure: one XT-910 core, a 2 MB L2 and 200-cycle memory.
func DefaultConfig() Config {
	return Config{
		CoresPerCluster: 1,
		Clusters:        1,
		Core:            core.XT910Config(),
		L2SizeBytes:     2 << 20,
		L2Ways:          16,
		L2HitLatency:    coherence.StockHitLatency, // not 0, so a run keyed on it equals one at the stock latency
		DRAMLatency:     200,
		DRAMGap:         4,
		StackBase:       0x400000,
		StackSize:       0x10000,
	}
}

// Validate checks the configuration against Table I.
func (c *Config) Validate() error {
	switch c.CoresPerCluster {
	case 1, 2, 4:
	default:
		return &core.ConfigError{Config: "soc", Reason: "cores per cluster must be 1, 2 or 4 (Table I)"}
	}
	if c.Clusters < 1 || c.Clusters > 4 {
		return &core.ConfigError{Config: "soc", Reason: "1–4 clusters (§VI)"}
	}
	if c.L2SizeBytes < 256<<10 || c.L2SizeBytes > 8<<20 {
		return &core.ConfigError{Config: "soc", Reason: "L2 must be 256KB–8MB (Table I)"}
	}
	if c.L2Ways != 8 && c.L2Ways != 16 {
		return &core.ConfigError{Config: "soc", Reason: "L2 is 8- or 16-way (§II)"}
	}
	if c.L2HitLatency < 0 {
		return &core.ConfigError{Config: "soc", Reason: "negative L2 hit latency"}
	}
	return c.Core.Validate()
}

// Cluster is one CPU cluster: up to four cores and a shared L2.
type Cluster struct {
	L2    *coherence.L2
	Cores []*core.Core
}

// System is the whole SMP machine: one allocation besides what it holds, as
// a cosim session builds one per fuzz seed.
type System struct {
	Cfg      Config
	Mem      *mem.Memory
	DRAM     mem.DRAM
	Ncore    *coherence.Ncore
	Clusters []Cluster
	Cores    []*core.Core // flattened, hart id order
	CLINT    CLINT
	PLIC     PLIC

	now      uint64 // cycles passed
	clusters [4]Cluster
	cores    [maxHarts]*core.Core
}

// devices is a System as its cores' device window: the CLINT and PLIC
// register windows, multiplexed.
type devices System

func (d *devices) Covers(pa uint64) bool { return d.CLINT.Covers(pa) || d.PLIC.Covers(pa) }

func (d *devices) Read(pa uint64, size int) uint64 { return d.at(pa).Read(pa, size) }

func (d *devices) Write(pa uint64, size int, v uint64) { d.at(pa).Write(pa, size, v) }

// at is the device whose window covers pa.
func (d *devices) at(pa uint64) mem.Device {
	if d.CLINT.Covers(pa) {
		return &d.CLINT
	}
	return &d.PLIC
}

// New builds the system.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	harts := cfg.Clusters * cfg.CoresPerCluster
	s := &System{Cfg: cfg, Mem: mem.NewMemory(), DRAM: mem.DRAM{Latency: cfg.DRAMLatency, GapCycles: cfg.DRAMGap},
		CLINT: *NewCLINT(harts), PLIC: PLIC{Base: 0x0C000000, harts: harts}}
	if cfg.Clusters > 1 {
		s.Ncore = coherence.NewNcore(&s.DRAM)
	}
	intSource := s.interruptBits // one function value for every core
	s.Cores = s.cores[:harts]
	s.Clusters = s.clusters[:cfg.Clusters]
	for cl := range s.Clusters {
		l2 := coherence.NewL2(cache.Config{
			SizeBytes: cfg.L2SizeBytes, Ways: cfg.L2Ways, LineBytes: mem.LineSize,
			HitLatency: cfg.L2HitLatency, ECC: true, Parity: true, // §II: ECC and parity
		}, &s.DRAM)
		if s.Ncore != nil {
			s.Ncore.Attach(l2)
		}
		first := cl * cfg.CoresPerCluster
		cores := s.Cores[first : first+cfg.CoresPerCluster : first+cfg.CoresPerCluster]
		for i := range cores {
			c := core.New(cfg.Core, first+i, s.Mem, l2)
			c.MMIO, c.IntSource = (*devices)(s), intSource
			if harts > 1 { // a lone core has nobody to broadcast to
				c.TLBBroadcast = s.broadcastTLB
				c.MemWriteHook = func(pa uint64, size int, from int) { core.BroadcastWrite(s.Cores, pa, size, from) }
			}
			cores[i] = c
		}
		s.Clusters[cl] = Cluster{L2: l2, Cores: cores}
	}
	return s, nil
}

// AttachTracer connects a pipeline tracer to one hart. Each hart needs its
// own tracer (a Tracer is single-core state); attaching nil detaches.
func (s *System) AttachTracer(hart int, t *trace.Tracer) {
	if hart >= 0 && hart < len(s.Cores) {
		s.Cores[hart].AttachTracer(t)
	}
}

// broadcastTLB implements the §V-E hardware TLB maintenance broadcast: the
// interconnect carries the invalidation to every hart without IPIs.
func (s *System) broadcastTLB(op isa.Op, operand uint64, from int) {
	for _, c := range s.Cores {
		if c.ID == from {
			continue // the local MMU was already maintained
		}
		switch op {
		case isa.XTLBIASID:
			c.MMU.FlushASID(uint16(operand))
		case isa.XTLBIVA:
			c.MMU.FlushVA(operand)
		}
	}
}

// LoadProgram starts p on every hart as on a fresh System, whatever ran
// before: memory holds p's image and zeros elsewhere, the CLINT and PLIC
// registers are at their reset values (their Base and Divider stay), and
// each core is Reset to p's entry with its own stack. Only timing state —
// clocks, caches, predictors — stays warm (core.Core.Reset).
func (s *System) LoadProgram(p *asm.Program) {
	s.Mem.Clear()
	p.LoadInto(s.Mem)
	s.CLINT.reset()
	s.PLIC.reset()
	for i, c := range s.Cores {
		c.Reset(p.Entry, s.Cfg.StackBase-uint64(i)*s.Cfg.StackSize)
	}
}

// interruptBits composes the externally-driven mip bits for a hart: MSIP
// (bit 3) from the CLINT's msip register, MTIP (bit 7) from the timer, MEIP
// (bit 11) from the PLIC.
func (s *System) interruptBits(hart int) uint64 {
	var v uint64
	if s.CLINT.SoftPending(hart) {
		v |= 1 << 3
	}
	if s.CLINT.TimerPending(hart) {
		v |= 1 << 7
	}
	if s.PLIC.ExtPending(hart) {
		v |= 1 << 11
	}
	return v
}

// Now returns the number of cycles the system has passed.
func (s *System) Now() uint64 { return s.now }

// Advance passes time: it begins cycle Now() — the CLINT ticks — and then
// jumps every live core over the inert window that starts there, to the
// earliest of their next events (core.NextEvent), the CLINT's next
// mtime ≥ mtimecmp edge and limit, or, with no such window (or a limit at or
// before Now()), steps each live core once in hart order. It reports false,
// counting no cycle, when no core is live (the tick stands). Jumping is sound
// because the CLINT and PLIC registers change only at a core's commit, which
// no inert window holds, or between calls.
func (s *System) Advance(limit uint64) bool {
	s.CLINT.Advance(1)
	var window uint64 // cycles every live core can jump; 0 steps one
	if limit > s.now {
		window = limit - s.now
	}
	live := false
	for _, c := range s.Cores {
		if !c.Halted {
			live = true
			if window > 0 {
				window = min(window, c.NextEvent()-c.Now())
			}
		}
	}
	if !live {
		return false
	}
	if window > 0 {
		window = min(window, s.CLINT.NextEdge())
	}
	for _, c := range s.Cores {
		if c.Halted {
			continue
		}
		if window == 0 {
			c.Step()
		} else {
			c.AdvanceIdle(c.Now() + window)
		}
	}
	window = max(window, 1)
	s.CLINT.Advance(window - 1) // the cycles after this one begin too
	s.now += window
	return true
}

// RunContext advances until every core halts, maxCycles elapse, or ctx is
// cancelled (polled every 1024 advances). It returns the number of cycles
// passed, and the context's error when the run was cut short; the machine
// stays resumable. The clock is the same with or without a deadline.
func (s *System) RunContext(ctx context.Context, maxCycles uint64) (uint64, error) {
	start, limit := s.now, s.now+maxCycles
	if limit < start {
		limit = ^uint64(0) // saturate: callers pass huge budgets
	}
	for n := 0; s.now < limit; n++ {
		if n&1023 == 0 && ctx.Err() != nil {
			return s.now - start, ctx.Err()
		}
		if !s.Advance(limit) {
			break
		}
	}
	return s.now - start, nil
}

// Run advances until every core halts or maxCycles elapse. It returns the
// number of cycles passed.
func (s *System) Run(maxCycles uint64) uint64 {
	cycles, _ := s.RunContext(context.Background(), maxCycles)
	return cycles
}

// AllHalted reports whether every core has halted.
func (s *System) AllHalted() bool {
	for _, c := range s.Cores {
		if !c.Halted {
			return false
		}
	}
	return true
}

// FastForward sums the cores' event-driven-clock counters.
func (s *System) FastForward() (ff core.FFStats) {
	for _, c := range s.Cores {
		ff.Add(c.FastForwardStats())
	}
	return ff
}

// Release hands the tables of every core, every L2 and the memory to the
// systems built after it (DESIGN.md "Session storage recycling"). Only the
// code that built the system may call it, once nothing can reach the system.
func (s *System) Release() {
	for _, c := range s.Cores {
		c.Release()
	}
	for _, cl := range s.Clusters {
		cl.L2.Release()
	}
	s.Mem.Release()
}
