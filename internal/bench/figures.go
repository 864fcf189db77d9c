package bench

import (
	"context"
	"fmt"

	"xt910/internal/asm"
	"xt910/internal/compiler"
	"xt910/internal/core"
	"xt910/internal/perf"
	"xt910/internal/prefetch"
	"xt910/internal/soc"
	"xt910/internal/workloads"
)

// Fig17 reproduces the CoreMark comparison: "XT-910 processor reaches 7.1
// CoreMark/MHz, which is 40% faster than SiFive U74" (§X). Absolute
// CoreMark/MHz is a property of the real binary; the reproduced quantities
// are iterations per mega-cycle per configuration and the XT-910/U74 ratio,
// whose paper value is 7.1/5.1 ≈ 1.39.
func Fig17(ctx context.Context, o Options) (*perf.Result, error) {
	w := workloads.CoreMark
	iters := o.iters(w)
	env := o.env()
	res := &perf.Result{ID: "fig17", Title: "CoreMark scores (iterations per Mcycle; ratio vs U74-class)"}
	type pt struct {
		cfg   core.Config
		paper float64 // paper's CoreMark/MHz for the corresponding core
	}
	points := []pt{
		{env.XT910, 7.1},
		{env.U74, 5.1},
		{env.A73, 0}, // not in Fig. 17; shown for context
	}
	ids := make([]string, len(points))
	fns := make([]func(context.Context) (runResult, error), len(points))
	for i, p := range points {
		cfg := p.cfg
		ids[i] = "fig17/" + cfg.Name
		fns[i] = func(ctx context.Context) (runResult, error) {
			return runWorkload(ctx, o, w, iters, env.machine(cfg))
		}
	}
	runs, err := runJobs(ctx, o, ids, fns)
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		r := runs[i]
		if r.Exit != runs[0].Exit {
			return nil, fmt.Errorf("bench: coremark architectural mismatch across configs")
		}
		score := float64(iters) / (float64(r.Cycles) / 1e6)
		res.Rows = append(res.Rows, counterRow(perf.Row{
			Label: p.cfg.Name, Measured: score, Paper: p.paper,
			Unit: "iter/Mcycle (paper: CoreMark/MHz)",
			Note: fmt.Sprintf("IPC %.2f", r.IPC()),
			CPI:  cpiColumn(r),
		}, r))
	}
	xt, u74 := runs[0], runs[1]
	res.Rows = append(res.Rows, perf.Row{
		Label: "XT-910 / U74 ratio", Measured: float64(u74.Cycles) / float64(xt.Cycles),
		Paper: 7.1 / 5.1, Unit: "x",
	})
	res.Notes = append(res.Notes,
		"absolute CoreMark/MHz is binary-specific; the reproduced claim is the ratio (paper: ~1.39x)")
	return res, nil
}

// Fig18 reproduces the EEMBC comparison, normalized to the Cortex-A73-class
// machine (§X Fig. 18 shows XT-910 ≈ parity across the suite).
func Fig18(ctx context.Context, o Options) (*perf.Result, error) {
	return suiteVsA73(ctx, "fig18", "EEMBC kernels, normalized to A73-class", workloads.EEMBC(), o)
}

// Fig19 reproduces the NBench comparison (§X Fig. 19: ≈ parity with A73).
func Fig19(ctx context.Context, o Options) (*perf.Result, error) {
	return suiteVsA73(ctx, "fig19", "NBench kernels, normalized to A73-class", workloads.NBench(), o)
}

// suiteVsA73 runs every workload on both configurations — one job per
// (workload, config) arm — and reports per-workload ratios plus the geomean.
func suiteVsA73(ctx context.Context, id, title string, suite []workloads.Workload, o Options) (*perf.Result, error) {
	env := o.env()
	var ids []string
	var fns []func(context.Context) (runResult, error)
	for _, w := range suite {
		w := w
		iters := o.iters(w)
		for _, cfg := range []core.Config{env.XT910, env.A73} {
			ids = append(ids, id+"/"+w.Name+"/"+cfg.Name)
			fns = append(fns, func(ctx context.Context) (runResult, error) {
				return runWorkload(ctx, o, w, iters, env.machine(cfg))
			})
		}
	}
	runs, err := runJobs(ctx, o, ids, fns)
	if err != nil {
		return nil, err
	}
	res := &perf.Result{ID: id, Title: title}
	var ratios []float64
	for i, w := range suite {
		xt, a73 := runs[2*i], runs[2*i+1]
		if xt.Exit != a73.Exit {
			return nil, fmt.Errorf("bench: %s architectural mismatch across configs", w.Name)
		}
		ratio := float64(a73.Cycles) / float64(xt.Cycles) // >1: XT-910 faster
		ratios = append(ratios, ratio)
		res.Rows = append(res.Rows, counterRow(perf.Row{
			Label: w.Name, Measured: ratio, Unit: "x vs A73-class",
			CPI: cpiColumn(xt), // the XT-910 arm's breakdown
		}, xt))
	}
	res.Rows = append(res.Rows, perf.Row{
		Label: "geomean", Measured: perf.Geomean(ratios), Paper: 1.0,
		Unit: "x", Note: "paper: overall parity with Cortex-A73",
	})
	return res, nil
}

// Fig20 reproduces the toolchain co-optimization study: "the performance of
// XT-910 with instruction extensions and optimized compiler has been improved
// by about 20%" (§X). Each IR kernel is compiled by the baseline and the
// optimized+extensions backends and timed on the XT-910 configuration — one
// job per (kernel, backend) arm.
func Fig20(ctx context.Context, o Options) (*perf.Result, error) {
	type armOut struct {
		cycles uint64
		exit   int
		static int
	}
	kernels := compiler.Fig20Kernels()
	backends := []compiler.Backend{
		compiler.Baseline{},
		compiler.Optimized{UseCustomExt: true},
	}
	var ids []string
	var fns []func(context.Context) (armOut, error)
	for _, f := range kernels {
		f := f
		if o.Quick {
			f.Repeat = 2
		}
		for bi, be := range backends {
			be := be
			name := [2]string{"base", "opt"}[bi]
			ids = append(ids, "fig20/"+f.Name+"/"+name)
			fns = append(fns, func(ctx context.Context) (armOut, error) {
				items, err := be.Compile(f)
				if err != nil {
					return armOut{}, err
				}
				b := asm.NewBuilder(asm.Options{Base: 0x1000, Compress: true}, 0)
				b.Add(items)
				p, err := b.Program()
				if err != nil {
					return armOut{}, err
				}
				r, err := runProgram(ctx, o, p, soc.DefaultConfig(), nil)
				if err != nil {
					return armOut{}, err
				}
				return armOut{cycles: r.Cycles, exit: r.Exit, static: compiler.StaticInsts(items)}, nil
			})
		}
	}
	runs, err := runJobs(ctx, o, ids, fns)
	if err != nil {
		return nil, err
	}
	res := &perf.Result{ID: "fig20", Title: "instruction extensions + optimized compiler vs native"}
	var ratios []float64
	for i, f := range kernels {
		base, opt := runs[2*i], runs[2*i+1]
		if base.exit != opt.exit {
			return nil, fmt.Errorf("bench: %s backends disagree architecturally", f.Name)
		}
		ratio := float64(base.cycles) / float64(opt.cycles)
		ratios = append(ratios, ratio)
		res.Rows = append(res.Rows, perf.Row{
			Label: f.Name, Measured: ratio, Unit: "x speedup",
			Note: fmt.Sprintf("static insts %d -> %d", base.static, opt.static),
		})
	}
	res.Rows = append(res.Rows, perf.Row{
		Label: "geomean", Measured: perf.Geomean(ratios), Paper: 1.20, Unit: "x",
	})
	res.Notes = append(res.Notes,
		"the IR kernels isolate the optimization-relevant loops; whole-benchmark gains dilute toward the paper's ~20%")
	return res, nil
}

// Fig21 reproduces the prefetch study on STREAM (§X Fig. 21): five scenarios
// a–e over a ~200-cycle memory, run under SV39 4 KB paging so the TLB
// prefetcher has work to do. The paper's speedups over scenario a are
// b=3.8x, c=4.9x, d=5.4x and e ≈ d − 2.4%. Each scenario is one job; the
// speedup column is computed afterwards against scenario a's cycles.
func Fig21(ctx context.Context, o Options) (*perf.Result, error) {
	type scenario struct {
		label string
		paper float64
		pf    prefetch.Config
	}
	pfOff := prefetch.Config{Mode: prefetch.ModeOff}
	base := prefetch.Config{Mode: prefetch.ModeMultiStream}
	b := base
	b.L1Enable = true
	c := b
	c.L2Enable, c.TLBPrefetch = true, true
	d := c
	d.LargeDistance = true
	e := d
	e.TLBPrefetch = false
	scenarios := []scenario{
		{"a: all prefetch off", 1.0, pfOff},
		{"b: L1 only, small distance", 3.8, b},
		{"c: L1+L2+TLB, small distance", 4.9, c},
		{"d: L1+L2+TLB, large distance", 5.4, d},
		{"e: d with TLB prefetch off", 5.4 * (1 - 0.024), e},
	}
	iters := 2 // two passes amortize first-touch and stream-overrun effects
	prog, err := workloads.Stream.Program(iters, true)
	if err != nil {
		return nil, err
	}
	// a small L2 and a scaled-down TLB keep the 128 KB arrays memory-bound,
	// matching the paper's configured 200-cycle DDR environment; the FPGA
	// memory path supports only two outstanding demand misses (MSHRs below)
	setup := pagedSetup{tableBase: 0x600000, mapBytes: 0x800000}

	ids := make([]string, len(scenarios))
	fns := make([]func(context.Context) (runResult, error), len(scenarios))
	for i, sc := range scenarios {
		sc := sc
		ids[i] = "fig21/" + sc.label[:1]
		fns[i] = func(ctx context.Context) (runResult, error) {
			sys := soc.DefaultConfig()
			sys.Core.Prefetch = sc.pf
			sys.Core.L1D.MSHRs = 1 // FPGA-harness memory path concurrency (see DESIGN.md)
			sys.L2SizeBytes, sys.L2Ways, sys.DRAMGap = 256<<10, 8, 12
			r, err := runProgram(ctx, o, prog, sys, setup)
			if err != nil {
				return runResult{}, fmt.Errorf("scenario %q: %w", sc.label, err)
			}
			return r, nil
		}
	}
	runs, err := runJobs(ctx, o, ids, fns)
	if err != nil {
		return nil, err
	}
	res := &perf.Result{ID: "fig21", Title: "prefetch impact on STREAM (speedup vs scenario a)"}
	baseCycles := runs[0].Cycles
	for i, sc := range scenarios {
		if runs[i].Exit != runs[0].Exit {
			return nil, fmt.Errorf("bench: fig21 scenarios disagree architecturally")
		}
		res.Rows = append(res.Rows, counterRow(perf.Row{
			Label: sc.label, Measured: float64(baseCycles) / float64(runs[i].Cycles),
			Paper: sc.paper, Unit: "x vs a",
			CPI: cpiColumn(runs[i]),
		}, runs[i]))
	}
	res.Notes = append(res.Notes,
		"single-MSHR demand path models the FPGA memory controller (DESIGN.md)")
	return res, nil
}
