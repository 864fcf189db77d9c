// Package soc assembles XT-910 cores into the paper's multi-core topology
// (§VI): one to four cores per cluster sharing an inclusive L2 with MOSEI
// coherence and a snoop filter, and up to four clusters joined by an
// Ncore-style interconnect. Cores step in deterministic lock-step, so every
// simulation is exactly reproducible.
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
	DRAMLatency     int // CPU cycles (§X uses ~200)
	DRAMGap         int

	// StackBase/StackSize place each hart's stack.
	StackBase uint64
	StackSize uint64
}

// DefaultConfig is a single-core XT-910 with a 1 MB L2 and 200-cycle memory.
func DefaultConfig() Config {
	return Config{
		CoresPerCluster: 1,
		Clusters:        1,
		Core:            core.XT910Config(),
		L2SizeBytes:     1 << 20,
		L2Ways:          16,
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
	return c.Core.Validate()
}

// Cluster is one CPU cluster: up to four cores and a shared L2.
type Cluster struct {
	L2    *coherence.L2
	Cores []*core.Core
}

// System is the whole SMP machine.
type System struct {
	Cfg      Config
	Mem      *mem.Memory
	DRAM     *mem.DRAM
	Ncore    *coherence.Ncore
	Clusters []*Cluster
	Cores    []*core.Core // flattened, hart id order
	CLINT    *CLINT
	PLIC     *PLIC
}

// mmioRouter multiplexes the CLINT and PLIC register windows.
type mmioRouter struct {
	clint *CLINT
	plic  *PLIC
}

func (r mmioRouter) Covers(pa uint64) bool {
	return r.clint.Covers(pa) || r.plic.Covers(pa)
}

func (r mmioRouter) Read(pa uint64, size int) uint64 {
	if r.clint.Covers(pa) {
		return r.clint.Read(pa, size)
	}
	return r.plic.Read(pa, size)
}

func (r mmioRouter) Write(pa uint64, size int, v uint64) {
	if r.clint.Covers(pa) {
		r.clint.Write(pa, size, v)
		return
	}
	r.plic.Write(pa, size, v)
}

// New builds the system.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{Cfg: cfg, Mem: mem.NewMemory()}
	s.DRAM = &mem.DRAM{Latency: cfg.DRAMLatency, GapCycles: cfg.DRAMGap}
	totalHarts := cfg.Clusters * cfg.CoresPerCluster
	s.CLINT = NewCLINT(totalHarts)
	s.PLIC = NewPLIC(totalHarts)
	if cfg.Clusters > 1 {
		s.Ncore = coherence.NewNcore(s.DRAM)
	}
	hart := 0
	for cl := 0; cl < cfg.Clusters; cl++ {
		l2cfg := cache.Config{
			SizeBytes: cfg.L2SizeBytes, Ways: cfg.L2Ways, LineBytes: 64,
			HitLatency: 10, ECC: true, Parity: true, // §II: ECC and parity
		}
		l2 := coherence.NewL2(l2cfg, s.DRAM)
		if s.Ncore != nil {
			s.Ncore.Attach(l2)
		}
		cluster := &Cluster{L2: l2}
		for i := 0; i < cfg.CoresPerCluster; i++ {
			c := core.New(cfg.Core, hart, s.Mem, l2)
			c.TLBBroadcast = s.broadcastTLB
			c.MemWriteHook = func(pa uint64, size int, from int) {
				core.BroadcastWrite(s.Cores, pa, size, from)
			}
			c.MMIO = mmioRouter{clint: s.CLINT, plic: s.PLIC}
			c.IntSource = s.interruptBits
			cluster.Cores = append(cluster.Cores, c)
			s.Cores = append(s.Cores, c)
			hart++
		}
		s.Clusters = append(s.Clusters, cluster)
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

// LoadProgram loads an assembled image and resets every core to its entry,
// giving each hart its own stack.
func (s *System) LoadProgram(p *asm.Program) {
	p.LoadInto(s.Mem)
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

// Step advances every core by one cycle (deterministic lock-step).
func (s *System) Step() {
	s.CLINT.Tick()
	for _, c := range s.Cores {
		c.Step()
	}
}

// runCheckMask controls how often RunContext polls for cancellation: every
// 1024 simulated cycles, cheap enough to disappear in the noise yet prompt
// enough that a cancelled experiment stops within microseconds of host time.
const runCheckMask = 1<<10 - 1

// RunContext steps until every core halts, maxCycles elapse, or ctx is
// cancelled. It returns the number of cycles simulated and the context's
// error when the run was cut short by cancellation or deadline; the cycle
// count up to that point is still meaningful. Stepping is identical to Run,
// so a given program and configuration produce the same cycle count whether
// or not a context carries a (non-expiring) deadline.
func (s *System) RunContext(ctx context.Context, maxCycles uint64) (uint64, error) {
	var cycles uint64
	for ; cycles < maxCycles; cycles++ {
		if cycles&runCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return cycles, err
			}
		}
		allHalted := true
		s.CLINT.Tick()
		for _, c := range s.Cores {
			if !c.Halted {
				c.Step()
				allHalted = false
			}
		}
		if allHalted {
			break
		}
	}
	return cycles, nil
}

// Run steps until every core halts or maxCycles elapse. It returns the number
// of cycles simulated.
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
