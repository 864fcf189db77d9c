package bench

import (
	"context"
	"fmt"

	"xt910/internal/core"
	"xt910/internal/perf"
	"xt910/internal/prefetch"
	"xt910/internal/soc"
	"xt910/internal/workloads"
)

// Ablations quantifies the individual XT-910 design choices the paper
// describes, by disabling each mechanism in isolation and re-running the
// workload that exercises it. Rows report the slowdown relative to the full
// machine (>1: the mechanism pays for itself). Every (study, arm) pair is an
// independent job on the worker pool.
func Ablations(ctx context.Context, o Options) (*perf.Result, error) {
	res := &perf.Result{ID: "ablation", Title: "design-choice ablations (slowdown when disabled)"}

	type study struct {
		name string
		w    workloads.Workload
		mut  func(*core.Config)
	}
	studies := []study{
		{"loop buffer off (§III-C)", workloads.AIDotScalar,
			func(c *core.Config) { c.EnableLoopBuf = false }},
		{"L0 BTB off (§III-B)", workloads.CoreMark,
			func(c *core.Config) { c.EnableL0BTB = false }},
		{"indirect predictor off (§III-B)", workloads.CoreMark,
			func(c *core.Config) { c.EnableIndirect = false }},
		{"pseudo-double stores off (§V-B)", workloads.CoreMark,
			func(c *core.Config) { c.SplitStores = false }},
		{"mem-dep prediction off (§V-A)", workloads.CoreMark,
			func(c *core.Config) { c.MemDepPredict = false }},
		{"prefetcher off (§V-C)", workloads.SpecLike,
			func(c *core.Config) { c.Prefetch.Mode = prefetch.ModeOff }},
		{"in-order issue (no OoO, §IV)", workloads.CoreMark,
			func(c *core.Config) { c.OutOfOrder = false }},
		{"half-size ROB (§IV)", workloads.CoreMark,
			func(c *core.Config) { c.ROBSize = 96 }},
		{"single-issue decode (§IV)", workloads.CoreMark,
			func(c *core.Config) { c.DecodeWidth = 1 }},
	}

	// one full machine, referenced by every study: the scope simulates each
	// workload on it once however many studies compare against it
	full := soc.DefaultConfig()
	var ids []string
	var fns []func(context.Context) (runResult, error)
	for _, s := range studies {
		iters := o.iters(s.w)
		if s.w.Name == workloads.SpecLike.Name {
			iters = 1
		}
		cut := full
		s.mut(&cut.Core)
		for ai, sys := range []soc.Config{full, cut} {
			ids = append(ids, "ablation/"+s.name+"/"+[2]string{"full", "cut"}[ai])
			fns = append(fns, func(ctx context.Context) (runResult, error) {
				return runWorkload(ctx, o, s.w, iters, sys)
			})
		}
	}
	runs, err := runJobs(ctx, o, ids, fns)
	if err != nil {
		return nil, err
	}
	for i, s := range studies {
		full, cut := runs[2*i], runs[2*i+1]
		if cut.Exit != full.Exit {
			return nil, fmt.Errorf("%s: ablated config changed the result", s.name)
		}
		res.Rows = append(res.Rows, perf.Row{
			Label:    s.name,
			Measured: float64(cut.Cycles) / float64(full.Cycles),
			Unit:     "x slowdown on " + s.w.Name,
		})
	}
	res.Notes = append(res.Notes,
		"near-1.0 rows are honest overlaps: the L0 BTB already removes the back-edge bubble the LBUF targets (its I-cache power saving is unmodelled), and store data is usually ready with the address on these kernels")
	return res, nil
}

// Density quantifies the §II/§III RVC story: XT-910 fetches 128-bit lines
// holding "a maximum of 8 instructions" because compressed encodings shrink
// the footprint. The experiment assembles the CoreMark workload with and
// without RVC auto-compression (one job per image) and compares code size
// and runtime.
func Density(ctx context.Context, o Options) (*perf.Result, error) {
	iters := o.iters(workloads.CoreMark)
	type armOut struct {
		size   int
		cycles uint64
		exit   int
	}
	arm := func(compress bool) func(context.Context) (armOut, error) {
		return func(ctx context.Context) (armOut, error) {
			p, err := workloads.CoreMark.Program(iters, compress)
			if err != nil {
				return armOut{}, err
			}
			r, err := runProgram(ctx, o, p, soc.DefaultConfig(), nil)
			if err != nil {
				return armOut{}, err
			}
			return armOut{size: len(p.Data), cycles: r.Cycles, exit: r.Exit}, nil
		}
	}
	runs, err := runJobs(ctx, o, []string{"density/rv64g", "density/rvc"},
		[]func(context.Context) (armOut, error){arm(false), arm(true)})
	if err != nil {
		return nil, err
	}
	plain, rvc := runs[0], runs[1]
	if plain.exit != rvc.exit {
		return nil, fmt.Errorf("bench: density runs disagree architecturally")
	}
	res := &perf.Result{ID: "density", Title: "RVC code density (CoreMark image)"}
	res.Rows = append(res.Rows,
		perf.Row{Label: "image bytes, RV64G only", Measured: float64(plain.size), Unit: "bytes"},
		perf.Row{Label: "image bytes, with RVC", Measured: float64(rvc.size), Unit: "bytes"},
		perf.Row{Label: "size ratio", Measured: float64(rvc.size) / float64(plain.size), Unit: "x",
			Note: "image includes data tables; label-referencing control flow stays 4-byte for deterministic two-pass layout"},
		perf.Row{Label: "cycle ratio (RVC/uncompressed)", Measured: float64(rvc.cycles) / float64(plain.cycles), Unit: "x"},
	)
	return res, nil
}
