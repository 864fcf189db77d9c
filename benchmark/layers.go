package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"xt910/internal/asm"
	"xt910/internal/cache"
	"xt910/internal/coherence"
	"xt910/internal/core"
	"xt910/internal/cosim"
	"xt910/internal/emu"
	"xt910/internal/mem"
	"xt910/internal/trace"
	"xt910/internal/workloads"
	"xt910/isa"
)

// This file holds the one place each layer is called from: a thin function
// per public entry point that opens a span, makes the call, and closes the
// span with the work the call reported. Workload repetitions and the layer
// ledger are both built from these.

const (
	stackTop  = 0x400000 // where bench.runProgram puts the stack
	maxCycles = 2_000_000_000
	maxInsts  = 1 << 40
)

var errDidNotHalt = errors.New("did not halt within the cycle budget")

// kernel is one assembled program plus what the golden emulator said about it.
type kernel struct {
	name    string
	src     string
	prog    *asm.Program
	instret uint64 // golden retired-instruction count
	exit    int    // golden exit code (the kernel's self-check checksum)
	fuzz    bool   // a generated fuzz program: it may trap, and the core counts a trapping instruction as retired where the emulator does not, so only exit codes compare
}

// opResult is the outcome of one op: one kernel run, fuzz seed, campaign or
// experiment. The three counts are simulated and therefore exact.
type opResult struct {
	name    string
	ops     int // ops this result stands for (0 means 1; a campaign run stands for its items)
	instrs  uint64
	cycles  uint64
	commits uint64
	err     error
}

// guard runs one op under a deadline and a recover, so a hang or a panic in
// the simulator is one failed op, not a dead benchmark.
func guard(ctx context.Context, timeout time.Duration, name string, fn func(context.Context) (opResult, error)) (r opResult) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	defer func() {
		if v := recover(); v != nil {
			r.err = fmt.Errorf("panic: %v", v)
		}
		r.name = name
	}()
	r, err := fn(ctx)
	if err == nil {
		err = ctx.Err() // an op that outlived its deadline failed even if it returned
	}
	r.err = err
	return r
}

func assemble(sc scope, src string) (*asm.Program, error) {
	s := sc.begin("asm", "asm.Assemble")
	p, err := asm.Assemble(src, asm.Options{Base: 0x1000, Compress: true})
	s.end(1)
	return p, err
}

// buildKernel generates and assembles a workload kernel at the given
// iteration count (the generator is string formatting inside the workloads
// package; it is charged to the asm span's parent).
func buildKernel(sc scope, w workloads.Workload, iters int) (kernel, error) {
	k := kernel{name: w.Name, src: w.Gen(iters)}
	p, err := assemble(sc, k.src)
	if err != nil {
		return k, fmt.Errorf("%s: %w", w.Name, err)
	}
	k.prog = p
	return k, nil
}

// decodeImage runs isa.Decode over every aligned 32-bit word of the image,
// passes times. Data words decode to ILLEGAL, which is still a decode.
func decodeImage(sc scope, p *asm.Program, passes int) {
	s := sc.begin("isa", "isa.Decode")
	var n, sink uint64
	d := p.Data
	for ; passes > 0; passes-- {
		for i := 0; i+4 <= len(d); i += 4 {
			raw := uint32(d[i]) | uint32(d[i+1])<<8 | uint32(d[i+2])<<16 | uint32(d[i+3])<<24
			in := isa.Decode(raw)
			sink += uint64(in.Op)
			n++
		}
	}
	decodeSink = sink
	s.end(n)
}

var decodeSink uint64 // keeps the decode loop from being optimised away

// runEmu executes the program on the golden emulator alone.
func runEmu(ctx context.Context, sc scope, name string, p *asm.Program) (m *emu.Machine, err error) {
	s := sc.begin("emu", name)
	m = emu.New(mem.NewMemory())
	defer func() { s.end(m.Instret) }()
	p.LoadInto(m.Mem)
	m.PC = p.Entry
	m.X[isa.SP] = stackTop
	for !m.Halted {
		if err := ctx.Err(); err != nil {
			return m, err
		}
		if m.Instret >= maxInsts {
			return m, errDidNotHalt
		}
		if err := m.Run(1 << 20); err != nil {
			return m, err
		}
	}
	return m, nil
}

// golden fills in the kernel's reference instruction count and exit code.
func (k *kernel) golden(ctx context.Context, sc scope) error {
	m, err := runEmu(ctx, sc, "emu.Run", k.prog)
	if err != nil {
		return fmt.Errorf("%s: emu: %w", k.name, err)
	}
	k.instret, k.exit = m.Instret, m.ExitCode
	return nil
}

// newCore builds the single-core system bench.runProgram builds: stock 2 MB
// L2, 200-cycle DRAM, program loaded, core reset.
func newCore(sc scope, cfg core.Config, p *asm.Program) *core.Core {
	s := sc.begin("core", "core.New")
	memory := mem.NewMemory()
	dram := &mem.DRAM{Latency: 200, GapCycles: 4}
	l2 := coherence.NewL2(cache.Config{SizeBytes: 2 << 20, Ways: 16, LineBytes: 64,
		HitLatency: 10, ECC: true, Parity: true}, dram)
	c := core.New(cfg, 0, memory, l2)
	p.LoadInto(memory)
	c.Reset(p.Entry, stackTop)
	s.end(1)
	return c
}

// runCore drives core.Core.Run to halt; the span (named by the caller, so
// toggled runs stay apart) counts retired instructions.
func runCore(ctx context.Context, sc scope, name string, c *core.Core) error {
	s := sc.begin("core", name)
	defer func() { s.end(c.Stats.Retired) }()
	for !c.Halted {
		if err := ctx.Err(); err != nil {
			return err
		}
		if c.Stats.Cycles >= maxCycles {
			return errDidNotHalt
		}
		c.Run(1 << 16)
	}
	return nil
}

// stepCore drives the core one Step at a time, the way a cosim session
// does; fast-forward never engages on this path.
func stepCore(ctx context.Context, sc scope, name string, c *core.Core) error {
	s := sc.begin("core", name)
	defer func() { s.end(c.Stats.Cycles) }()
	for !c.Halted {
		if err := ctx.Err(); err != nil {
			return err
		}
		if c.Stats.Cycles >= maxCycles {
			return errDidNotHalt
		}
		for i := 0; i < 1024 && !c.Halted; i++ {
			c.Step()
		}
	}
	return nil
}

// checkAgainstGolden is the per-op correctness check of a core run.
func (k kernel) checkAgainstGolden(c *core.Core) error {
	if c.ExitCode != k.exit {
		return fmt.Errorf("%s: exit code %d, golden %d", k.name, c.ExitCode, k.exit)
	}
	if !k.fuzz && c.Stats.Retired != k.instret {
		return fmt.Errorf("%s: retired %d, golden %d", k.name, c.Stats.Retired, k.instret)
	}
	return nil
}

// coreOp is one kernel run on the timing core, checked against the golden
// emulator.
func coreOp(ctx context.Context, sc scope, k kernel) (opResult, error) {
	c := newCore(sc, core.XT910Config(), k.prog)
	if err := runCore(ctx, sc, "core.Run", c); err != nil {
		return opResult{}, err
	}
	r := opResult{instrs: c.Stats.Retired, cycles: c.Stats.Cycles}
	return r, k.checkAgainstGolden(c)
}

// fuzzCase is one seed in one mode set.
type fuzzCase struct {
	seed  int64
	modes string // "", "paged", "irq", "smp"
}

func (fc fuzzCase) String() string {
	if fc.modes == "" {
		return fmt.Sprintf("base/%d", fc.seed)
	}
	return fmt.Sprintf("%s/%d", fc.modes, fc.seed)
}

const seedTimeout = 30 * time.Second

func (fc fuzzCase) options() (cosim.Options, error) {
	modes, err := cosim.ParseModes(fc.modes)
	if err != nil {
		return cosim.Options{}, err
	}
	opts := cosim.Options{Modes: modes, SeedTimeout: seedTimeout}
	return opts, opts.Validate()
}

// checkFuzz is the per-op correctness check of a fuzz seed.
func checkFuzz(fr cosim.FuzzResult) error {
	switch {
	case fr.Err != nil:
		return fr.Err
	case fr.TimedOut:
		return fmt.Errorf("seed %d: timed out", fr.Seed)
	case fr.Diverged:
		return fmt.Errorf("seed %d: diverged (%s)", fr.Seed, fr.Result.Kind)
	}
	return nil
}

// fuzzOp is one seed through cosim.FuzzWatched, the unit xtfuzz and the
// campaign shards schedule.
func fuzzOp(ctx context.Context, sc scope, fc fuzzCase) (opResult, error) {
	opts, err := fc.options()
	if err != nil {
		return opResult{}, err
	}
	s := sc.begin("cosim", "cosim.FuzzWatched")
	fr := cosim.FuzzWatched(ctx, fc.seed, 0, opts)
	s.end(fr.Result.Commits)
	r := opResult{instrs: fr.Result.Commits, cycles: fr.Result.Cycles, commits: fr.Result.Commits}
	return r, checkFuzz(fr)
}

// lockstep runs one program under the lock-step checker; it fails on a
// divergence or a timeout.
func lockstep(ctx context.Context, sc scope, name string, k kernel) (opResult, cosim.Result, error) {
	s := sc.begin("cosim", name)
	res := cosim.RunContext(ctx, k.prog, cosim.Options{MaxCycles: maxCycles})
	s.end(res.Commits)
	r := opResult{instrs: res.Commits, cycles: res.Cycles, commits: res.Commits}
	switch {
	case res.TimedOut:
		return r, res, fmt.Errorf("%s: timed out", k.name)
	case res.Diverged:
		return r, res, fmt.Errorf("%s: diverged (%s)", k.name, res.Kind)
	}
	return r, res, nil
}

// lockstepOp is one whole kernel under the lock-step checker, checked
// against the golden emulator's own run as well. (Kernels take no traps, so
// commits equal retired instructions; fuzz programs do, and there the two
// counts may differ.)
func lockstepOp(ctx context.Context, sc scope, k kernel) (opResult, error) {
	r, res, err := lockstep(ctx, sc, "cosim.RunContext", k)
	switch {
	case err != nil:
	case res.ExitCode != k.exit:
		err = fmt.Errorf("%s: exit code %d, golden %d", k.name, res.ExitCode, k.exit)
	case res.Commits != k.instret:
		err = fmt.Errorf("%s: %d commits, golden retired %d", k.name, res.Commits, k.instret)
	}
	return r, err
}

// attachedTracer is what `xtbench -cpistack` attaches: no sinks, CPI stack
// only.
func attachedTracer() *trace.Tracer { return trace.New(trace.Config{}) }
