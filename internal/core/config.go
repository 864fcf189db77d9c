// Package core implements the XT-910 execution core (§IV): the 12-stage
// pipeline (IF IP IB ID IR IS RF EX1–EX4 RT1 RT2) with 3-wide decode, 4-wide
// rename onto speculatively-allocated physical registers, an 8-slot
// age-vector out-of-order issue stage with dynamic load balancing, eight
// execution pipes (two single-cycle ALUs, one branch unit, a dual-issue
// out-of-order LSU with pseudo-double stores, two FPU/vector pipes), a
// 192-entry re-order buffer and in-order retirement with precise exceptions.
//
// The model is value-carrying: instructions execute functionally inside the
// pipeline using renamed physical registers, so the architectural results are
// exact and continuously cross-checked against the functional emulator.
package core

import (
	"xt910/internal/cache"
	"xt910/internal/mem"
	"xt910/internal/prefetch"
)

// Config selects a microarchitecture. XT910Config is the paper's machine;
// U74Config and A73Config model the comparison cores in Figs. 17–19.
// Dimensions every config shares are constants, not fields: the vector
// register width is vector.VLEN, the line size mem.LineSize, and New builds
// the direction predictor, L0 BTB, RAS and indirect predictor at fixed sizes.
type Config struct {
	Name string

	// Front end (§III).
	FetchBytes     int  // fetch-group width in bytes (XT-910: 16 = 128 bits)
	FetchQueue     int  // IBUF capacity in instructions
	FrontendDelay  int  // IF→ID stage count minus one (IP, IB)
	EnableL0BTB    bool // zero-bubble redirects at IF
	EnableLoopBuf  bool // 16-entry LBUF (§III-C)
	EnableIndirect bool // indirect-branch predictor
	L1BTBEntries   int
	TakenPenalty   int // IP-stage redirect bubble for taken branches missing L0

	// Mid pipeline (§IV).
	DecodeWidth   int
	RenameWidth   int
	RenameDelay   int // ID→issue-ready stage count (IR, IS, RF)
	IssueWidth    int // shared instruction slots per cycle (XT-910: 8)
	IssueQueue    int // per-pipe issue queue capacity
	ROBSize       int
	RetireWidth   int
	IntPhysRegs   int
	FpPhysRegs    int
	Checkpoints   int  // branch RAT checkpoints in flight
	OutOfOrder    bool // false: oldest-first (in-order) issue, U74-class
	MemDepPredict bool // §V-A load/store speculation-failure tagging
	SplitStores   bool // §V-B pseudo-double store µops

	// LSU and memory.
	LQSize        int
	SQSize        int
	MispredictMin int // minimum redirect gap after EX-stage branch resolution

	// TLB geometry (§V-D). Zero values select the XT-910 defaults
	// (32-entry micro-TLB, 1024-entry 4-way joint TLB).
	UTLBEntries int
	JTLBEntries int

	L1I      cache.Config
	L1D      cache.Config
	Prefetch prefetch.Config

	// Vector engine (§VII), of vector.VLEN-bit registers.
	EnableVector bool

	// EnableCustomExt gates the non-standard instructions (§VIII); with it
	// off the core traps on them, operating "fully compatible with the
	// standard RISC-V" (§II).
	EnableCustomExt bool

	// PredecodeCache enables the host-side raw-word→isa.Inst fetch cache
	// (predecode.go). It is a simulator speedup, not a modelled structure:
	// it never serves stale bytes (an entry is used only while memory holds
	// its word), but toggling it may shift TLB access patterns slightly.
	PredecodeCache bool

	// PredecodeSuperblock extends the predecode cache to straight-line
	// decoded runs replayed whole (superblock.go). Host-only like the
	// single-instruction cache, active only while translation is off;
	// toggling it changes nothing but the Predecode*/Superblock* counters.
	PredecodeSuperblock bool

	// FastForward enables the event-driven clock (fastforward.go) in Run and
	// in cosim sessions: windows where provably no pipeline stage can make
	// progress are jumped, every per-cycle counter and CPI bucket replicated
	// exactly. Host-only; Stats are byte-identical with it on or off.
	FastForward bool
}

// XT910Config returns the paper's machine: triple-issue decode, 8-slot issue,
// 192-entry ROB, dual-issue OoO LSU, full prediction and prefetch machinery.
func XT910Config() Config {
	return Config{
		Name:           "XT-910",
		FetchBytes:     16,
		FetchQueue:     16,
		FrontendDelay:  2,
		EnableL0BTB:    true,
		EnableLoopBuf:  true,
		EnableIndirect: true,
		L1BTBEntries:   1024,
		TakenPenalty:   2,

		DecodeWidth:   3,
		RenameWidth:   4,
		RenameDelay:   3,
		IssueWidth:    8,
		IssueQueue:    12,
		ROBSize:       192,
		RetireWidth:   4,
		IntPhysRegs:   96,
		FpPhysRegs:    64,
		Checkpoints:   16,
		OutOfOrder:    true,
		MemDepPredict: true,
		SplitStores:   true,

		LQSize:        32,
		SQSize:        24,
		MispredictMin: 5,

		L1I:      cache.Config{SizeBytes: 64 << 10, Ways: 4, LineBytes: mem.LineSize, HitLatency: 1},
		L1D:      cache.Config{SizeBytes: 64 << 10, Ways: 4, LineBytes: mem.LineSize, HitLatency: 2},
		Prefetch: prefetch.DefaultConfig(),

		EnableVector:    true,
		EnableCustomExt: true,

		PredecodeCache:      true,
		PredecodeSuperblock: true,
		FastForward:         true,
	}
}

// U74Config models a SiFive-U74-class core: dual-issue, in-order, 8-stage
// class pipeline with a simpler front end and no data prefetcher. Used as the
// Fig. 17 comparison point.
func U74Config() Config {
	c := XT910Config()
	c.Name = "U74-class"
	c.FetchBytes = 8
	c.FetchQueue = 8
	c.FrontendDelay = 1
	c.EnableL0BTB = false
	c.EnableLoopBuf = false
	c.L1BTBEntries = 256
	c.TakenPenalty = 1
	c.DecodeWidth = 2
	c.RenameWidth = 2
	c.RenameDelay = 1
	c.IssueWidth = 2
	c.IssueQueue = 8
	c.ROBSize = 32
	c.RetireWidth = 2
	c.IntPhysRegs = 48
	c.FpPhysRegs = 40
	c.Checkpoints = 4
	c.OutOfOrder = false
	c.MemDepPredict = false
	c.SplitStores = false
	c.LQSize = 4
	c.SQSize = 4
	c.MispredictMin = 3
	c.L1I.SizeBytes = 32 << 10
	c.L1D.SizeBytes = 32 << 10
	c.L1D.HitLatency = 1 // short in-order load-to-use path
	c.Prefetch.Mode = prefetch.ModeOff
	c.EnableVector = false
	c.EnableCustomExt = false
	return c
}

// A73Config models an ARM-Cortex-A73-class core: 2-wide out-of-order with a
// moderate window, the Fig. 18/19 comparison point. §X notes the A73 and
// XT-910 share "many architectural similarities (e.g., pipeline stages,
// instruction issue width)"; the A73 is slightly narrower at decode.
func A73Config() Config {
	c := XT910Config()
	c.Name = "A73-class"
	c.DecodeWidth = 2
	c.RenameWidth = 3
	c.IssueWidth = 6
	c.ROBSize = 64
	c.RetireWidth = 3
	c.IntPhysRegs = 80
	c.FpPhysRegs = 64
	c.EnableLoopBuf = false
	c.LQSize = 16
	c.SQSize = 12
	c.Prefetch.Mode = prefetch.ModeGlobal
	c.Prefetch.TLBPrefetch = false
	// the A73's memory subsystem sustains more outstanding misses — the §X
	// SPECInt comparison attributes its edge to exactly this
	c.L1D.MSHRs = 16
	c.EnableVector = false // NEON modelled separately in the AI comparison
	c.EnableCustomExt = false
	return c
}

// Validate reports configuration errors (Table I bounds).
func (c *Config) Validate() error {
	checks := []struct {
		ok  bool
		msg string
	}{
		{c.FetchBytes >= 4, "fetch width too small"},
		{c.DecodeWidth >= 1, "decode width"},
		{c.ROBSize >= 8, "ROB too small"},
		{c.IntPhysRegs >= 40, "need at least 40 int phys regs (32 arch + margin)"},
		{c.FpPhysRegs >= 40, "need at least 40 fp phys regs"},
		{c.LQSize >= 2 && c.SQSize >= 2, "LQ/SQ too small"},
		{c.L1I.SizeBytes == 32<<10 || c.L1I.SizeBytes == 64<<10, "L1I must be 32KB or 64KB (Table I)"},
		{c.L1D.SizeBytes == 32<<10 || c.L1D.SizeBytes == 64<<10, "L1D must be 32KB or 64KB (Table I)"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return &ConfigError{Config: c.Name, Reason: ch.msg}
		}
	}
	return nil
}

// ConfigError reports an invalid configuration.
type ConfigError struct {
	Config string
	Reason string
}

func (e *ConfigError) Error() string {
	return "core: invalid config " + e.Config + ": " + e.Reason
}
