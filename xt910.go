// Package xt910 is the public API of the XT-910 processor model: a
// cycle-approximate, value-carrying simulator of the Xuantie-910 (ISCA 2020)
// 12-stage out-of-order RV64GCV core, its vector engine, memory subsystem
// (L1/L2 caches with MOSEI coherence, multi-size TLBs, multi-mode multi-stream
// prefetch) and multi-core/multi-cluster SMP topology, together with the
// assembler and the functional (golden) emulator.
//
// Quick start:
//
//	sys, _ := xt910.NewSystem(xt910.DefaultConfig())
//	prog, _ := xt910.Assemble(src, xt910.AsmOptions{})
//	sys.LoadProgram(prog)
//	sys.Run(10_000_000)
//	h := sys.Hart(0)
//	fmt.Println(h.ExitCode(), h.Stats().IPC())
package xt910

import (
	"context"
	"fmt"
	"io"

	"xt910/internal/asm"
	"xt910/internal/core"
	"xt910/internal/emu"
	"xt910/internal/mem"
	"xt910/internal/soc"
	"xt910/internal/trace"
	"xt910/internal/xterrors"
	"xt910/isa"
)

// Sentinel errors returned (wrapped) by the facade; match with errors.Is.
var (
	// ErrInvalidConfig reports a configuration outside the Table I envelope
	// (returned by NewSystem).
	ErrInvalidConfig = xterrors.ErrInvalidConfig
	// ErrNoProgram reports RunContext called before LoadProgram/LoadAssembly.
	ErrNoProgram = xterrors.ErrNoProgram
	// ErrDidNotHalt reports a run that exhausted its cycle budget with at
	// least one hart still executing (returned by RunContext and the bench
	// harness).
	ErrDidNotHalt = xterrors.ErrDidNotHalt
)

// CoreConfig selects a core microarchitecture; see XT910Core, U74Core and
// A73Core for the paper's three comparison points.
type CoreConfig = core.Config

// XT910Core returns the paper's machine: triple-issue decode, 8-slot
// out-of-order issue, 192-entry ROB, dual-issue OoO LSU, vector engine,
// custom extensions, full prediction and prefetch machinery.
func XT910Core() CoreConfig { return core.XT910Config() }

// U74Core returns the dual-issue in-order comparison core (Fig. 17).
func U74Core() CoreConfig { return core.U74Config() }

// A73Core returns the Cortex-A73-class out-of-order comparison core
// (Figs. 18/19).
func A73Core() CoreConfig { return core.A73Config() }

// Config sizes a full system (cores per cluster, clusters, L2, DRAM).
type Config = soc.Config

// DefaultConfig returns the stock machine xtbench's tables measure: one
// XT-910 core, a 2 MB L2 and the paper's 200-cycle memory latency.
func DefaultConfig() Config { return soc.DefaultConfig() }

// Stats exposes the per-core performance counters.
type Stats = core.Stats

// Program is an assembled binary image.
type Program = asm.Program

// AsmOptions configures assembly.
type AsmOptions = asm.Options

// Assemble assembles XT-910 assembly source (RV64GCV plus the custom
// extensions, GNU-flavoured syntax).
func Assemble(src string, opts AsmOptions) (*Program, error) {
	return asm.Assemble(src, opts)
}

// System is a simulated XT-910 machine.
type System struct {
	*soc.System
	loaded bool
}

// NewSystem builds a system from cfg (validated against Table I). A rejected
// configuration satisfies errors.Is(err, ErrInvalidConfig); the wrapped
// *core.ConfigError carries the specific Table I bound that failed.
func NewSystem(cfg Config) (*System, error) {
	s, err := soc.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("xt910: %w: %w", ErrInvalidConfig, err)
	}
	return &System{System: s}, nil
}

// LoadProgram loads an assembled image and starts every core at its entry,
// as on a fresh System whatever ran before: memory the image does not cover
// reads zero, and registers, CSRs, privilege level, counters and the
// interrupt controllers start from reset (soc.System.LoadProgram). Caches
// and predictors stay warm.
func (s *System) LoadProgram(p *Program) {
	s.System.LoadProgram(p)
	s.loaded = true
}

// LoadAssembly assembles src and loads it as LoadProgram does.
func (s *System) LoadAssembly(src string, opts AsmOptions) (*Program, error) {
	p, err := asm.Assemble(src, opts)
	if err != nil {
		return nil, fmt.Errorf("xt910: assemble: %w", err)
	}
	s.LoadProgram(p)
	return p, nil
}

// RunContext advances the machine until every hart halts, maxCycles elapse,
// or ctx is cancelled. It returns the number of cycles simulated along with:
//
//   - nil when every hart reached the host exit syscall;
//   - a ctx error (matching context.Canceled / context.DeadlineExceeded via
//     errors.Is) when the run was cut short — the machine stays inspectable
//     and resumable at the cycle it stopped on;
//   - ErrNoProgram when nothing was loaded;
//   - ErrDidNotHalt when the cycle budget ran out first.
func (s *System) RunContext(ctx context.Context, maxCycles uint64) (uint64, error) {
	if !s.loaded {
		return 0, fmt.Errorf("xt910: run: %w", ErrNoProgram)
	}
	cycles, err := s.System.RunContext(ctx, maxCycles)
	if err != nil {
		return cycles, fmt.Errorf("xt910: run cancelled after %d cycles: %w", cycles, err)
	}
	if !s.AllHalted() {
		return cycles, fmt.Errorf("xt910: %w after %d cycles", ErrDidNotHalt, cycles)
	}
	return cycles, nil
}

// Hart is a handle on one hardware thread of a System. It is the unit of
// per-hart inspection: a multi-hart program is examined hart by hart rather
// than by threading an index through every System accessor:
//
//	for i := 0; i < sys.Harts(); i++ {
//		h := sys.Hart(i)
//		fmt.Printf("hart %d: exit=%d ipc=%.2f\n", h.ID(), h.ExitCode(), h.Stats().IPC())
//	}
//
// A Hart is a cheap value (copy it freely) and stays valid for the lifetime
// of its System. The handle for an out-of-range index is still usable: every
// accessor degrades to a zero value instead of panicking.
type Hart struct {
	id int
	c  *core.Core
}

// Hart returns the handle for hart i. An out-of-range i yields a degraded
// handle whose accessors return zero values.
func (s *System) Hart(i int) Hart { return Hart{id: i, c: s.hart(i)} }

// Harts returns the number of harts in the system (cores per cluster times
// clusters).
func (s *System) Harts() int { return len(s.Cores) }

// ID returns the hart index this handle was created with.
func (h Hart) ID() int { return h.id }

// Core returns the hart's core model (predictors, caches, MMU, counters), or
// nil for a degraded handle.
func (h Hart) Core() *core.Core { return h.c }

// ExitCode returns the hart's exit status (valid after it halts); 0 for a
// degraded handle.
func (h Hart) ExitCode() int {
	if h.c != nil {
		return h.c.ExitCode
	}
	return 0
}

// Output returns the bytes the hart wrote through the host write syscall;
// nil for a degraded handle.
func (h Hart) Output() []byte {
	if h.c != nil {
		return h.c.Output
	}
	return nil
}

// Stats returns the hart's performance counters; zeroed counters for a
// degraded handle (never nil, so chained calls like Stats().IPC() are always
// safe).
func (h Hart) Stats() *Stats {
	if h.c != nil {
		return &h.c.Stats
	}
	return &Stats{}
}

// Reg reads the hart's architectural register r; 0 for a degraded handle.
func (h Hart) Reg(r isa.Reg) uint64 {
	if h.c != nil {
		return h.c.Reg(r)
	}
	return 0
}

// hart returns hart i's core, or nil when i is out of range — Hart handles
// degrade to zero values instead of panicking on a bad hart index.
func (s *System) hart(i int) *core.Core {
	if i < 0 || i >= len(s.Cores) {
		return nil
	}
	return s.Cores[i]
}

// Tracer is the per-hart pipeline observability hook set: per-µop lifecycle
// tracing (Konata/JSONL) plus the always-on top-down CPI stack. Attach one to
// a hart with AttachTracer (inherited from the SoC layer) before running, and
// Close it after the run to flush the sinks:
//
//	t := xt910.NewTracer(xt910.TraceConfig{}, xt910.NewKonataWriter(f))
//	sys.AttachTracer(0, t)
//	sys.Run(budget)
//	t.Close()
//	fmt.Println(t.CPI())
type Tracer = trace.Tracer

// TraceConfig bounds tracer cost: cycle window, sampling, flight-recorder
// depth and the in-flight buffer cap.
type TraceConfig = trace.Config

// CPIStack is the top-down cycle-attribution histogram accumulated by a
// Tracer; its buckets sum exactly to the traced hart's Stats.Cycles.
type CPIStack = trace.CPIStack

// NewTracer builds a tracer feeding the given sinks; with no sinks it still
// accumulates the CPI stack.
func NewTracer(cfg TraceConfig, sinks ...trace.Sink) *Tracer {
	return trace.New(cfg, sinks...)
}

// NewKonataWriter returns a sink streaming the Kanata log format understood
// by the Konata pipeline visualizer.
func NewKonataWriter(w io.Writer) trace.Sink { return trace.NewKonataWriter(w) }

// NewJSONLWriter returns a sink streaming one JSON object per µop.
func NewJSONLWriter(w io.Writer) trace.Sink { return trace.NewJSONLWriter(w) }

// Emulator is the functional golden model (the "instruction accurate
// simulator" of the paper's CDS toolchain, §IX).
type Emulator = emu.Machine

// NewEmulator builds a functional emulator with the program loaded and hart
// 0's stack where a System places it.
func NewEmulator(p *Program) *Emulator {
	m := emu.New(mem.NewMemory())
	p.LoadInto(m.Mem)
	m.PC = p.Entry
	m.X[isa.SP] = soc.DefaultConfig().StackBase
	return m
}
