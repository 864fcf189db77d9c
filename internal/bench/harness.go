// Package bench is the paper-reproduction harness: one entry point per table
// and figure in the evaluation (§X), each returning a perf.Result with the
// measured values next to the paper's. cmd/xtbench prints them, and
// EXPERIMENTS.md holds its -quick tables.
//
// Every experiment takes a context.Context and runs its independent simulator
// instances (core-config arms, scenarios, ablation studies) as internal/sched
// jobs that share the invocation's Scope: each distinct run is simulated once
// and at most Options.Jobs simulations are in flight, so a multi-core host
// reproduces the whole evaluation in parallel. Results are assembled in a
// fixed order from per-arm jobs, which makes the output byte-identical
// whatever Options.Jobs is set to.
package bench

import (
	"context"
	"fmt"
	"time"

	"xt910/internal/asm"
	"xt910/internal/coherence"
	"xt910/internal/core"
	"xt910/internal/mem"
	"xt910/internal/mmu"
	"xt910/internal/perf"
	"xt910/internal/sched"
	"xt910/internal/soc"
	"xt910/internal/trace"
	"xt910/internal/workloads"
	"xt910/internal/xterrors"
	"xt910/isa"
)

// Options tunes harness cost and concurrency. Quick shrinks iteration counts
// for smoke runs (unit tests); the full settings are sized for the real
// reproduction.
type Options struct {
	Quick bool

	// Jobs bounds the simulations in flight across every experiment and arm
	// of the invocation (the xtbench -jobs flag). Values <= 1 run them one
	// at a time in paper order; the experiment tables are byte-identical
	// either way.
	Jobs int

	// Timeout, when positive, is the per-experiment deadline of Run (the
	// xtbench -timeout flag), counted from the experiment's first
	// simulation slot; an overrun surfaces as a *sched.JobError wrapping
	// context.DeadlineExceeded.
	Timeout time.Duration

	// OnProgress, when set, receives each experiment's sched.Result as it
	// completes: wall time, simulated cycles, sim-cycles per host second.
	OnProgress func(sched.Result)

	// CPIStack attaches a sink-less pipeline tracer to every measured run and
	// adds a top-down cycle breakdown (retiring / frontend / badspec / mem /
	// core) to the per-run table rows (the xtbench -cpistack flag).
	CPIStack bool

	// Env is the machine the paper's core comparisons run on (the zero Env:
	// StockEnv). The calibration sweep varies it.
	Env Env
}

// Env is what Fig17, Fig18, Fig19 and SpecInt compare: their three cores
// and the harness L2's hit latency.
type Env struct {
	XT910 core.Config
	U74   core.Config
	A73   core.Config
	L2Hit int
}

// StockEnv is the uncalibrated model: the stock configurations every other
// experiment runs with too.
func StockEnv() Env {
	return Env{
		XT910: core.XT910Config(),
		U74:   core.U74Config(),
		A73:   core.A73Config(),
		L2Hit: coherence.StockHitLatency,
	}
}

// env is the Env the comparisons run on: o.Env, or StockEnv when it is zero.
func (o Options) env() Env {
	if o.Env == (Env{}) {
		return StockEnv()
	}
	return o.Env
}

// machine is Machine(cfg) with the env's L2 hit latency.
func (e Env) machine(cfg core.Config) soc.Config {
	m := Machine(cfg)
	m.L2HitLatency = e.L2Hit
	return m
}

func (o Options) iters(w workloads.Workload) int {
	if o.Quick {
		n := w.DefaultIters / 10
		if n < 1 {
			n = 1
		}
		return n
	}
	return w.DefaultIters
}

// workers is the width of the scope an invocation with these options opens.
func (o Options) workers() int {
	if o.Jobs < 1 {
		return 1
	}
	return o.Jobs
}

// runJobs starts the experiment's arms all at once — the scope's gate, not a
// pool, bounds how many simulate — and returns their values in submission
// order (deterministic regardless of concurrency), or the first job-order
// error. An experiment called outside Run opens its own scope here.
func runJobs[T any](ctx context.Context, o Options, ids []string, fns []func(context.Context) (T, error)) ([]T, error) {
	ctx, _ = Scoped(ctx, o.workers())
	l := ticketOf(ctx).lane
	jobs := make([]sched.Job, len(fns))
	for i := range fns {
		fn, t := fns[i], ticket{lane: l, arm: i}
		jobs[i] = sched.Job{ID: ids[i], Run: func(ctx context.Context) (any, error) {
			return fn(context.WithValue(ctx, ticketKey{}, t))
		}}
	}
	rs := sched.Run(ctx, jobs, sched.Options{Workers: len(jobs)})
	if err := sched.FirstError(rs); err != nil {
		return nil, err
	}
	out := make([]T, len(rs))
	for i, r := range rs {
		out[i] = r.Value.(T)
	}
	return out, nil
}

// runResult captures one measured execution as values: the scope keeps it
// for every asker of the same run, and it must not pin the simulator.
type runResult struct {
	Cycles     uint64
	Retired    uint64
	Exit       int
	Interrupts uint64
	WFIParked  uint64
	Walks      uint64          // page-table walks
	CPI        *trace.CPIStack // non-nil when a tracer observed the run
	CPIPC      string          // per-PC backend-stall summary ("" untraced)
}

func (r runResult) IPC() float64 { return float64(r.Retired) / float64(r.Cycles) }

// Machine is the system every harness run simulates unless an experiment
// varies it: one core of cfg over a 2 MB, 16-way L2 and the paper's
// 200-cycle DRAM, its stack below 0x400000. cmd/xt910sim runs programs on
// the same machine. The L2 hit latency is set to the stock one rather than
// left 0, so that a StockEnv run is the same run, shared by the scope, as a
// Machine one.
func Machine(cfg core.Config) soc.Config {
	m := soc.DefaultConfig()
	m.Core, m.L2SizeBytes, m.L2HitLatency = cfg, 2<<20, coherence.StockHitLatency
	return m
}

// setup prepares a freshly reset core before its first cycle.
type setup interface {
	apply(*core.Core, *mem.Memory)
}

// setupFunc is a caller's own set-up. A func has no identity to key a run
// on, so a run set up by one is simulated every time it is asked for.
type setupFunc func(*core.Core, *mem.Memory)

func (f setupFunc) apply(c *core.Core, m *mem.Memory) { f(c, m) }

// runProgram executes an assembled program on a fresh system, or returns
// what the invocation's scope already holds for the same run. Simulated
// cycles are credited to the enclosing sched job for the metrics stream
// either way.
func runProgram(ctx context.Context, o Options, p *asm.Program, sys soc.Config, su setup) (runResult, error) {
	ctx, sc := Scoped(ctx, o.workers())
	key, keyed := keyOf(o, p, sys, su)
	return sc.run(ctx, key, keyed, func(ctx context.Context) (runResult, error) {
		return simulate(ctx, o, p, sys, su)
	})
}

// simulate is the one place a harness run is built and run, on hart 0 of
// sys, polling ctx as the run goes so a cancelled or timed-out experiment
// stops promptly. With o.CPIStack set a sink-less tracer is attached before
// the set-up runs, so a set-up that attaches its own (sink-carrying) tracer
// wins; whichever tracer observed the run supplies runResult.CPI.
func simulate(ctx context.Context, o Options, p *asm.Program, sys soc.Config, su setup) (runResult, error) {
	s, err := soc.New(sys)
	if err != nil {
		return runResult{}, fmt.Errorf("bench: %w", err)
	}
	defer s.Release() // the runResult holds nothing of the system
	s.LoadProgram(p)
	c := s.Cores[0]
	if o.CPIStack {
		c.AttachTracer(trace.New(trace.Config{}))
	}
	if su != nil {
		su.apply(c, s.Mem)
	}
	_, err = s.RunContext(ctx, 2_000_000_000)
	sched.AddCycles(ctx, c.Stats.Cycles)
	sched.AddInstrs(ctx, c.Stats.Retired)
	if err != nil {
		return runResult{}, err
	}
	if !c.Halted {
		return runResult{}, fmt.Errorf("bench: %s (%s): %w", sys.Core.Name, c.Stats.String(), xterrors.ErrDidNotHalt)
	}
	rr := runResult{
		Cycles:     c.Stats.Cycles,
		Retired:    c.Stats.Retired,
		Exit:       c.ExitCode,
		Interrupts: c.Stats.Interrupts,
		WFIParked:  c.Stats.WFIParkedCycles,
		Walks:      c.MMU.Stats.Walks,
	}
	if t := c.Tracer(); t != nil {
		cpi := *t.CPI()
		rr.CPI = &cpi
		rr.CPIPC = t.PCs().Summary(3, c.Stats.Cycles)
	}
	return rr, nil
}

// Workloads is the whole suite: workloads.All() plus the
// dedicated-configuration workloads (STREAM, SPEC-like) it omits.
func Workloads() []workloads.Workload {
	return append(workloads.All(), workloads.Stream, workloads.SpecLike)
}

// FindWorkload resolves a kernel of Workloads by name.
func FindWorkload(name string) (workloads.Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workloads.Workload{}, false
}

// runWorkload assembles and runs a workload.
func runWorkload(ctx context.Context, o Options, w workloads.Workload, iters int, sys soc.Config) (runResult, error) {
	p, err := w.Program(iters, true)
	if err != nil {
		return runResult{}, err
	}
	return runProgram(ctx, o, p, sys, nil)
}

// cpiColumn renders a run's CPI-stack breakdown for a table row ("" when no
// tracer observed the run, which keeps the column out of untraced tables).
func cpiColumn(r runResult) string {
	if r.CPI == nil {
		return ""
	}
	return r.CPI.String()
}

// counterRow copies the run's interrupt-delivery and WFI-park counters onto
// a table row (they reach xtbench -json; zero values stay omitted).
func counterRow(row perf.Row, r runResult) perf.Row {
	row.Interrupts = r.Interrupts
	row.WFIParked = r.WFIParked
	if row.CPI != "" {
		row.CPIPC = r.CPIPC // per-PC line rides along with the CPI stack
	}
	return row
}

// pagedSetup builds identity-mapped SV39 tables (4 KB or huge pages) behind
// the loaded image and drops the core to S-mode — the environment for the
// Fig. 21 and TLB experiments. It is a comparable value, so it is part of the
// run's key.
type pagedSetup struct {
	tableBase, mapBytes uint64
	huge                bool
}

func (s pagedSetup) apply(c *core.Core, memory *mem.Memory) {
	tb := mmu.NewTableBuilder(memory, s.tableBase)
	if err := tb.IdentityMap(0, s.mapBytes, mmu.PteR|mmu.PteW|mmu.PteX, s.huge); err != nil {
		panic(err)
	}
	c.SetCSR(isa.CSRSatp, tb.Satp(1))
	c.SetPrivilege(isa.PrivS)
}
