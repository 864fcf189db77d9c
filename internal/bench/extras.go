package bench

import (
	"context"
	"fmt"
	"sync"

	"xt910/internal/core"
	"xt910/internal/mmu"
	"xt910/internal/perf"
	"xt910/internal/prefetch"
	"xt910/internal/sched"
	"xt910/internal/soc"
	"xt910/internal/workloads"
)

// SpecInt reproduces the §X SPECInt2006 comparison: "The performance of
// XT-910 is 6.11 SPECInt/GHz, which is 10% lower than the 6.75 SPECInt/GHz
// delivered by Cortex-A73." The SPEC-like large-footprint workload is run on
// both configurations; the reproduced quantity is the XT-910/A73 ratio
// (paper: 6.11/6.75 ≈ 0.905).
func SpecInt(ctx context.Context, o Options) (*perf.Result, error) {
	w := workloads.SpecLike
	iters := 1
	if !o.Quick {
		iters = w.DefaultIters
	}
	env := o.env()
	arm := func(cfg core.Config) func(context.Context) (runResult, error) {
		return func(ctx context.Context) (runResult, error) {
			return runWorkload(ctx, o, w, iters, env.machine(cfg))
		}
	}
	runs, err := runJobs(ctx, o, []string{"spec/xt910", "spec/a73"},
		[]func(context.Context) (runResult, error){arm(env.XT910), arm(env.A73)})
	if err != nil {
		return nil, err
	}
	xt, a73 := runs[0], runs[1]
	if xt.Exit != a73.Exit {
		return nil, fmt.Errorf("bench: speclike architectural mismatch")
	}
	ratio := float64(a73.Cycles) / float64(xt.Cycles)
	res := &perf.Result{ID: "spec", Title: "SPECInt-like large-footprint workload"}
	res.Rows = append(res.Rows,
		perf.Row{Label: "XT-910 IPC", Measured: xt.IPC(), Unit: "inst/cycle"},
		perf.Row{Label: "A73-class IPC", Measured: a73.IPC(), Unit: "inst/cycle"},
		perf.Row{Label: "XT-910 / A73 ratio", Measured: ratio, Paper: 6.11 / 6.75, Unit: "x",
			Note: "paper: XT-910 ~10% behind the A73 on SPECInt/GHz"},
	)
	return res, nil
}

// Table1 validates the configuration matrix of Table I: every legal
// combination constructs, every illegal one is rejected.
func Table1(ctx context.Context, _ Options) (*perf.Result, error) {
	res := &perf.Result{ID: "table1", Title: "XT-910 core configurations (Table I)"}
	legal := 0
	for _, cores := range []int{1, 2, 4} {
		for _, l1 := range []int{32 << 10, 64 << 10} {
			for _, l2 := range []int{256 << 10, 1 << 20, 8 << 20} {
				for _, vec := range []bool{false, true} {
					cfg := soc.DefaultConfig()
					cfg.CoresPerCluster = cores
					cfg.Core.L1D.SizeBytes = l1
					cfg.Core.L1I.SizeBytes = l1
					cfg.L2SizeBytes = l2
					cfg.Core.EnableVector = vec
					if err := cfg.Validate(); err != nil {
						return nil, fmt.Errorf("legal config rejected: %v", err)
					}
					legal++
				}
			}
		}
	}
	illegal := 0
	for _, mut := range []func(*soc.Config){
		func(c *soc.Config) { c.CoresPerCluster = 3 },
		func(c *soc.Config) { c.L2SizeBytes = 16 << 20 },
		func(c *soc.Config) { c.L2SizeBytes = 128 << 10 },
		func(c *soc.Config) { c.Core.L1D.SizeBytes = 128 << 10 },
		func(c *soc.Config) { c.Clusters = 5 },
		func(c *soc.Config) { c.L2Ways = 4 },
	} {
		cfg := soc.DefaultConfig()
		mut(&cfg)
		if cfg.Validate() == nil {
			return nil, fmt.Errorf("illegal config accepted")
		}
		illegal++
	}
	res.Rows = append(res.Rows,
		perf.Row{Label: "legal configurations accepted", Measured: float64(legal), Unit: "count"},
		perf.Row{Label: "illegal configurations rejected", Measured: float64(illegal), Unit: "count"},
	)
	return res, nil
}

// Table2 reports the analytical area/frequency/power model next to the
// paper's silicon numbers (see internal/perf/areapower.go and DESIGN.md).
func Table2(ctx context.Context, _ Options) (*perf.Result, error) {
	withVec := perf.XT910AreaPower(true, true)
	noVec := perf.XT910AreaPower(false, false)
	res := &perf.Result{ID: "table2", Title: "core performance in 12nm (analytical model)"}
	res.Rows = append(res.Rows,
		perf.Row{Label: "area with vector", Measured: withVec.AreaMM2, Paper: 0.8, Unit: "mm2"},
		perf.Row{Label: "area without vector", Measured: noVec.AreaMM2, Paper: 0.6, Unit: "mm2"},
		perf.Row{Label: "frequency (1.0V ULVT)", Measured: withVec.FreqGHz, Paper: 2.5, Unit: "GHz"},
		perf.Row{Label: "frequency (0.8V LVT)", Measured: noVec.FreqGHz, Paper: 2.0, Unit: "GHz"},
		perf.Row{Label: "dynamic power", Measured: noVec.DynamicUWPerMHz, Paper: 100, Unit: "uW/MHz"},
	)
	res.Notes = append(res.Notes, "silicon properties cannot be simulated; this is the calibrated first-order model")
	return res, nil
}

// VectorMAC reproduces the §X AI claim: XT-910 sustains 16 16-bit MACs per
// cycle (two 64-bit slices at e16 with widening accumulate) versus the A73's
// NEON 8. Measured as MAC throughput of the vector vs scalar dot product.
func VectorMAC(ctx context.Context, o Options) (*perf.Result, error) {
	iters := 4
	if !o.Quick {
		iters = workloads.AIDotVector.DefaultIters
	}
	arm := func(w workloads.Workload) func(context.Context) (runResult, error) {
		return func(ctx context.Context) (runResult, error) {
			return runWorkload(ctx, o, w, iters, soc.DefaultConfig())
		}
	}
	runs, err := runJobs(ctx, o, []string{"vector/scalar", "vector/vector", "vector/fp16"},
		[]func(context.Context) (runResult, error){
			arm(workloads.AIDotScalar), arm(workloads.AIDotVector), arm(workloads.AIDotFP16),
		})
	if err != nil {
		return nil, err
	}
	sc, vec, fp16 := runs[0], runs[1], runs[2]
	const macsPerIter = 2048
	totalMACs := float64(macsPerIter * iters)
	res := &perf.Result{ID: "vector", Title: "16-bit MAC throughput (§VII/§X AI claim)"}
	res.Rows = append(res.Rows,
		perf.Row{Label: "scalar MACs/cycle", Measured: totalMACs / float64(sc.Cycles), Unit: "MAC/cycle"},
		perf.Row{Label: "vector MACs/cycle", Measured: totalMACs / float64(vec.Cycles), Paper: 16,
			Unit: "MAC/cycle", Note: "paper: peak 16x 16-bit MACs (A73 NEON: 8x)"},
		perf.Row{Label: "vector/scalar speedup", Measured: float64(sc.Cycles) / float64(vec.Cycles), Unit: "x"},
		perf.Row{Label: "fp16 dot sustained", Measured: float64(512*iters) / float64(fp16.Cycles),
			Unit: "MAC/cycle", Note: "half precision: unsupported on the A73 comparison point"},
	)
	return res, nil
}

// ASID reproduces the §V-E claim: "the number of TLB flushes caused by
// context switch is decreased by almost 10X" with the 16-bit ASID. A
// process-churn trace drives the OS ASID allocator at both widths.
func ASID(ctx context.Context, o Options) (*perf.Result, error) {
	procs := 1 << 20
	if o.Quick {
		procs = 1 << 16
	}
	churn := func(width int) uint64 {
		a := mmu.NewASIDAllocator(width)
		for pid := 0; pid < procs; pid++ {
			a.Assign(uint64(pid))
		}
		return a.Wraps
	}
	w8 := churn(8)
	w16 := churn(16)
	res := &perf.Result{ID: "asid", Title: "TLB flushes under context-switch churn (§V-E)"}
	res.Rows = append(res.Rows,
		perf.Row{Label: "8-bit ASID flushes", Measured: float64(w8), Unit: "flushes"},
		perf.Row{Label: "16-bit ASID flushes", Measured: float64(w16), Unit: "flushes"},
		perf.Row{Label: "reduction", Measured: float64(w8) / float64(max64(w16, 1)), Paper: 10, Unit: "x",
			Note: "paper: almost 10x fewer flushes"},
	)
	return res, nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// HugePages reproduces the §V-E huge-page claim: 2 MB mappings cut TLB misses
// and page-table walks on a big-array sweep versus 4 KB pages.
func HugePages(ctx context.Context, o Options) (*perf.Result, error) {
	iters := 1
	if !o.Quick {
		iters = 2
	}
	prog, err := workloads.Stream.Program(iters, true)
	if err != nil {
		return nil, err
	}
	arm := func(huge bool) func(context.Context) (runResult, error) {
		return func(ctx context.Context) (runResult, error) {
			sys := soc.DefaultConfig()
			sys.Core.UTLBEntries = 8
			sys.Core.JTLBEntries = 32
			sys.Core.L1D.MSHRs = 2
			sys.Core.Prefetch.Mode = prefetch.ModeOff // expose the raw TLB behaviour
			sys.L2SizeBytes, sys.L2Ways, sys.DRAMGap = 256<<10, 8, 12
			return runProgram(ctx, o, prog, sys, pagedSetup{tableBase: 0x600000, mapBytes: 0x800000, huge: huge})
		}
	}
	runs, err := runJobs(ctx, o, []string{"hugepage/4k", "hugepage/2m"},
		[]func(context.Context) (runResult, error){arm(false), arm(true)})
	if err != nil {
		return nil, err
	}
	small, big := runs[0], runs[1]
	if small.Exit != big.Exit {
		return nil, fmt.Errorf("bench: hugepage runs disagree architecturally")
	}
	res := &perf.Result{ID: "hugepage", Title: "huge pages vs 4KB pages on STREAM (§V-E)"}
	res.Rows = append(res.Rows,
		perf.Row{Label: "4KB-page PT walks", Measured: float64(small.Walks), Unit: "walks"},
		perf.Row{Label: "2MB-page PT walks", Measured: float64(big.Walks), Unit: "walks"},
		perf.Row{Label: "walk reduction", Unit: "x",
			Measured: float64(small.Walks) / float64(max64(big.Walks, 1))},
		perf.Row{Label: "cycle speedup", Measured: float64(small.Cycles) / float64(big.Cycles), Unit: "x"},
	)
	return res, nil
}

// Blockchain reproduces the §I deployment claim qualitatively: the custom
// extensions accelerate the hash-style kernel behind blockchain transactions.
func Blockchain(ctx context.Context, o Options) (*perf.Result, error) {
	iters := o.iters(workloads.BlockchainBase)
	arm := func(w workloads.Workload) func(context.Context) (runResult, error) {
		return func(ctx context.Context) (runResult, error) {
			return runWorkload(ctx, o, w, iters, soc.DefaultConfig())
		}
	}
	runs, err := runJobs(ctx, o, []string{"blockchain/base", "blockchain/ext"},
		[]func(context.Context) (runResult, error){
			arm(workloads.BlockchainBase), arm(workloads.BlockchainExt),
		})
	if err != nil {
		return nil, err
	}
	base, ext := runs[0], runs[1]
	res := &perf.Result{ID: "blockchain", Title: "hash kernel with custom extensions (§I/§VIII)"}
	res.Rows = append(res.Rows,
		perf.Row{Label: "base-ISA cycles", Measured: float64(base.Cycles), Unit: "cycles"},
		perf.Row{Label: "with extensions", Measured: float64(ext.Cycles), Unit: "cycles"},
		perf.Row{Label: "speedup", Measured: float64(base.Cycles) / float64(ext.Cycles), Unit: "x",
			Note: "the §I FPGA win is attributed to these extensions"},
	)
	return res, nil
}

// Experiment is one named reproduction in the registry.
type Experiment struct {
	ID string
	Fn func(context.Context, Options) (*perf.Result, error)
}

// Experiments returns all 14 reproductions in paper order — the order RunAll
// runs and cmd/xtbench prints.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", Table1}, {"table2", Table2},
		{"fig17", Fig17}, {"fig18", Fig18}, {"fig19", Fig19},
		{"spec", SpecInt}, {"fig20", Fig20}, {"fig21", Fig21},
		{"vector", VectorMAC}, {"asid", ASID}, {"hugepage", HugePages},
		{"blockchain", Blockchain}, {"ablation", Ablations}, {"density", Density},
	}
}

// Find returns the registered experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll runs the whole registry: Run over Experiments().
func RunAll(ctx context.Context, o Options) []sched.Result {
	return Run(ctx, o, Experiments())
}

// Run executes exps in one scope Options.Jobs wide (the caller's, when ctx
// carries one) and returns the full per-job results — values, errors and
// host metrics — in the given order regardless of completion order. Each
// experiment gets its own Options.Timeout, counted from its first slot.
// Experiments are started in order, each once its predecessor holds its
// first slot (or has returned without simulating): all of them queue at the
// gate together, yet first slots — the start of each experiment's Wall and
// deadline — are taken in order, and Jobs 1 is the serial run.
func Run(ctx context.Context, o Options, exps []Experiment) []sched.Result {
	ctx, sc := Scoped(ctx, o.workers())
	rs := make([]sched.Result, len(exps))
	var wg sync.WaitGroup
	var progress sync.Mutex // serializes OnProgress
	for i, e := range exps {
		ectx, l := sc.enter(ctx, i, o.Timeout)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := sched.Run(ectx, []sched.Job{{ID: e.ID, Run: func(ctx context.Context) (any, error) {
				return e.Fn(ctx, o)
			}}}, sched.Options{})[0]
			l.finish()
			r.Wall = l.wall(r.Wall)
			rs[i] = r
			if o.OnProgress != nil {
				progress.Lock()
				o.OnProgress(r)
				progress.Unlock()
			}
		}()
		<-l.began
	}
	wg.Wait()
	return rs
}
