package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"xt910/internal/bench"
	"xt910/internal/campaign"
	"xt910/internal/perf"
	"xt910/internal/sched"
	"xt910/internal/workloads"
)

// sizes fixes how much work one repetition and one ledger probe do. The
// full sizes are the benchmark; the smoke sizes exist so `go test` can run
// the whole suite, both passes, in a few seconds.
type sizes struct {
	smoke bool // also: paper-tables runs the cheap experiments at Quick size

	itersNum, itersDen int // kernel iterations = DefaultIters × num ÷ den
	fuzzPerMode        int // cosim-fuzz seeds per mode
	campaignN          int // campaign-fleet seeds
	lastKernels        int // keep only this many kernels of each set, the lightest (0: all)

	ledgerFuzzPerMode int // cosim probe seeds per mode on workloads that are not fuzz
	ledgerCampaignN   int // campaign probe seeds on workloads that are not campaign-fleet
	ledgerProgCap     int // most fuzz programs handed to the program probes
	nullItems         int // campaign.null_item_us items
	noopJobs          int // sched.dispatch_us_per_job jobs
	minDecodes        int // isa.decode_ns_per_inst decodes at least this many words
}

var fullSizes = sizes{
	itersNum: 1, itersDen: 1, fuzzPerMode: 300, campaignN: 1200,
	ledgerFuzzPerMode: 40, ledgerCampaignN: 96, ledgerProgCap: 300,
	nullItems: 600, noopJobs: 2000, minDecodes: 1 << 21,
}

var smokeSizes = sizes{
	smoke:    true,
	itersNum: 1, itersDen: 40, fuzzPerMode: 3, campaignN: 16, lastKernels: 2,
	ledgerFuzzPerMode: 1, ledgerCampaignN: 8, ledgerProgCap: 3,
	nullItems: 16, noopJobs: 64, minDecodes: 1 << 12,
}

// trim keeps the tail of a kernel list, where every list puts its lightest.
func (sz sizes) trim(ws []workloads.Workload) []workloads.Workload {
	if sz.lastKernels > 0 && len(ws) > sz.lastKernels {
		return ws[len(ws)-sz.lastKernels:]
	}
	return ws
}

// cheap is the experiment list that stands in for the full tables.
func (sz sizes) cheap() []string {
	if sz.smoke {
		return []string{"table1", "fig17", "vector"}
	}
	return cheapExperiments
}

func (sz sizes) iters(w workloads.Workload, mul int) int {
	n := w.DefaultIters * mul * sz.itersNum / sz.itersDen
	if n < 1 {
		n = 1
	}
	return n
}

// seedWindows bounds the seed ranges the benchmark ever fuzzes: -seed picks
// one of 64 disjoint windows. Every seed of every window (1..19200 in each
// mode, 1..76800 in base mode for the campaign) was run when the benchmark
// was defined, so a failed op means the simulator changed, not that the dice
// found a new bug.
const seedWindows = 64

func window(seed int64) int64 {
	w := seed % seedWindows
	if w < 0 {
		w += seedWindows
	}
	return w
}

var fuzzModes = []string{"", "paged", "irq", "smp"}

// irqDivergent are the seeds of that sweep that diverge (kind mem) in irq
// mode at the commit that defined the benchmark. They are a finding for a
// correctness issue, not a benchmark input: each is replaced by the seed
// irqReplacement above it, all of which run clean.
var irqDivergent = map[int64]bool{2951: true, 3244: true, 3284: true, 3780: true, 11997: true, 12093: true, 17069: true}

const irqReplacement = 20000

// fuzzCases lists perMode seeds of the seed's window in every mode.
func fuzzCases(seed int64, perMode int) []fuzzCase {
	base := 1 + window(seed)*int64(perMode)
	var out []fuzzCase
	for _, m := range fuzzModes {
		for i := 0; i < perMode; i++ {
			fc := fuzzCase{seed: base + int64(i), modes: m}
			if m == "irq" && irqDivergent[fc.seed] {
				fc.seed += irqReplacement
			}
			out = append(out, fc)
		}
	}
	return out
}

// env is what a workload's set-up is given.
type env struct {
	seed    int64
	sz      sizes
	workdir string // scratch space inside the checkout (campaign state)
}

// instance is a workload after set-up: inputs built, references computed,
// servers started.
type instance interface {
	// rep runs every op of one repetition; failed ops are returned with
	// err set, and the repetition carries on.
	rep(ctx context.Context, sc scope) []opResult
	// inputs names what the layer ledger probes for this workload.
	inputs(ctx context.Context, sc scope) (ledgerInputs, error)
	close() error
}

type workload struct {
	name   string
	why    string
	warmup bool // discard the first repetition
	setup  func(ctx context.Context, sc scope, e env) (instance, error)
}

const (
	kernelTimeout   = 2 * time.Minute
	campaignTimeout = 3 * time.Minute
	tablesTimeout   = 3 * time.Minute
)

var suite = []workload{
	{
		name:   "core-compute",
		why:    "L1-resident high-IPC kernels on core.Run: fetch, predecode, rename, issue and retire do the work, fast-forward almost none",
		warmup: true,
		setup: func(ctx context.Context, sc scope, e env) (instance, error) {
			return setupKernels(ctx, sc, e, coreOp, 2,
				"coremark", "eembc-aifirf", "nbench-bitfield", "nbench-numsort", "ai-dot-scalar")
		},
	},
	{
		name:   "core-memory",
		why:    "stall-dominated kernels on core.Run: LSU, L2, DRAM and fast-forward do the work, decode little — the opposite use of core",
		warmup: true,
		setup: func(ctx context.Context, sc scope, e env) (instance, error) {
			return setupKernels(ctx, sc, e, coreOp, 1,
				"speclike", "stream", "eembc-pntrch", "eembc-tblook")
		},
	},
	{
		name:   "cosim-fuzz",
		why:    "many ~380-commit fuzz seeds in four modes: per-seed generate, assemble and session set-up dominate, the core runs on its Step path",
		warmup: true,
		setup:  setupFuzz,
	},
	{
		name:   "cosim-lockstep",
		why:    "whole kernels under the lock-step checker: per-commit checking dominates and session set-up vanishes — cosim used the other way",
		warmup: true,
		setup: func(ctx context.Context, sc scope, e env) (instance, error) {
			ks, err := setupKernels(ctx, sc, e, lockstepOp, 1,
				"coremark", "nbench-numsort", "eembc-tblook", "eembc-a2time", "eembc-pntrch", "ai-dot-vector")
			if err != nil {
				return nil, err
			}
			ks.locked = true
			return ks, nil
		},
	},
	{
		name:  "campaign-fleet",
		why:   "one fuzz campaign run by the local executor and by a coordinator with two HTTP workers: what the service costs on top of the simulator",
		setup: setupFleet,
	},
	{
		name:  "paper-tables",
		why:   "every paper experiment at full size and Jobs 2: what xtbench users wait for, the only workload where sched parallelism and bench matter",
		setup: setupTables,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range suite {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---------------------------------------------------------------------------
// core-compute, core-memory, cosim-lockstep: a fixed kernel set, one op each.

type kernelSet struct {
	e       env
	kernels []kernel
	op      func(context.Context, scope, kernel) (opResult, error)
	locked  bool // the op is a lock-step run: the ledger measures the checker on these kernels
}

// setupKernels assembles the named kernels at mul × DefaultIters, runs each
// on the golden emulator for its reference, and orders them by the seed (a
// kernel builds a fresh system, so order moves no simulated count).
func setupKernels(ctx context.Context, sc scope, e env, op func(context.Context, scope, kernel) (opResult, error), mul int, names ...string) (*kernelSet, error) {
	ks := &kernelSet{e: e, op: op}
	var ws []workloads.Workload
	for _, name := range names {
		w, ok := bench.FindWorkload(name)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", name)
		}
		ws = append(ws, w)
	}
	for _, w := range e.sz.trim(ws) {
		k, err := buildKernel(sc, w, e.sz.iters(w, mul))
		if err != nil {
			return nil, err
		}
		if err := k.golden(ctx, sc); err != nil {
			return nil, err
		}
		ks.kernels = append(ks.kernels, k)
	}
	rand.New(rand.NewSource(e.seed)).Shuffle(len(ks.kernels), func(i, j int) {
		ks.kernels[i], ks.kernels[j] = ks.kernels[j], ks.kernels[i]
	})
	return ks, nil
}

func (ks *kernelSet) rep(ctx context.Context, sc scope) []opResult {
	out := make([]opResult, 0, len(ks.kernels))
	for _, k := range ks.kernels {
		k := k
		out = append(out, guard(ctx, kernelTimeout, k.name, func(ctx context.Context) (opResult, error) {
			s := sc.begin("host", "op")
			defer s.end(1)
			return ks.op(ctx, s, k)
		}))
	}
	return out
}

func (ks *kernelSet) inputs(context.Context, scope) (ledgerInputs, error) {
	in := ledgerInputs{progs: ks.kernels}
	if ks.locked {
		in.locked = ks.kernels
	}
	return in.withDefaults(ks.e), nil
}

func (ks *kernelSet) close() error { return nil }

// ---------------------------------------------------------------------------
// cosim-fuzz

type fuzzSet struct {
	e     env
	cases []fuzzCase
	base  []kernel // the base-mode programs, with golden references
}

// setupFuzz builds every case's program once outside the timed loop — so a
// generator or assembler failure is a set-up error, not a failed op — and
// runs the base-mode programs on the golden emulator: they are what the
// ledger's emulator-alone and core-alone probes are checked against.
func setupFuzz(ctx context.Context, sc scope, e env) (instance, error) {
	fs := &fuzzSet{e: e, cases: fuzzCases(e.seed, e.sz.fuzzPerMode)}
	for _, fc := range fs.cases {
		k, _, err := fuzzProgram(sc, fc)
		if err != nil {
			return nil, err
		}
		if fc.modes != "" {
			continue
		}
		if err := k.golden(ctx, sc); err != nil {
			return nil, err
		}
		fs.base = append(fs.base, k)
	}
	return fs, nil
}

func (fs *fuzzSet) rep(ctx context.Context, sc scope) []opResult {
	out := make([]opResult, 0, len(fs.cases))
	for _, fc := range fs.cases {
		fc := fc
		out = append(out, guard(ctx, 3*seedTimeout, fc.String(), func(ctx context.Context) (opResult, error) {
			return fuzzOp(ctx, sc, fc)
		}))
	}
	return out
}

func (fs *fuzzSet) inputs(context.Context, scope) (ledgerInputs, error) {
	in := ledgerInputs{progs: fs.base, fuzz: fs.cases}
	return in.withDefaults(fs.e), nil
}

func (fs *fuzzSet) close() error { return nil }

// ---------------------------------------------------------------------------
// campaign-fleet

type fleetSet struct {
	e       env
	spec    *campaign.Spec
	want    []byte // the direct run's JSONL
	commits uint64
	cycles  uint64
	local   *fleet // engine with the in-process executor, no workers
	pure    *fleet // dispatcher only; two workers join per run
}

func setupFleet(ctx context.Context, sc scope, e env) (instance, error) {
	fl := &fleetSet{e: e}
	fl.spec = fuzzSpec(e.sz.campaignN, 1+window(e.seed)*int64(e.sz.campaignN))
	var err error
	if fl.want, fl.commits, fl.cycles, err = directReport(ctx, sc, fl.spec); err != nil {
		return nil, err
	}
	if fl.local, err = openFleet(sc, e.workdir, false); err != nil {
		return nil, err
	}
	if fl.pure, err = openFleet(sc, e.workdir, true); err != nil {
		fl.local.close()
		return nil, err
	}
	return fl, nil
}

// run is one campaign as one guarded result; every item of a failed
// campaign counts as a failed op.
func (fl *fleetSet) run(ctx context.Context, sc scope, f *fleet, kind string, workers int) opResult {
	r := guard(ctx, campaignTimeout, kind, func(ctx context.Context) (opResult, error) {
		spec := *fl.spec
		err := f.run(ctx, sc, kind, &spec, workers, fl.want)
		return opResult{instrs: fl.commits, cycles: fl.cycles, commits: fl.commits}, err
	})
	r.ops = fl.spec.N
	return r
}

func (fl *fleetSet) rep(ctx context.Context, sc scope) []opResult {
	return []opResult{
		fl.run(ctx, sc, fl.local, "local", 0),
		fl.run(ctx, sc, fl.pure, "w2", 2),
	}
}

func (fl *fleetSet) inputs(ctx context.Context, sc scope) (ledgerInputs, error) {
	in := ledgerInputs{campaign: fl}
	n := fl.spec.N
	if n > fl.e.sz.ledgerProgCap {
		n = fl.e.sz.ledgerProgCap
	}
	for _, seed := range fl.spec.Seeds()[:n] {
		k, _, err := fuzzProgram(sc, fuzzCase{seed: seed})
		if err != nil {
			return in, err
		}
		if err := k.golden(ctx, sc); err != nil {
			return in, err
		}
		in.progs = append(in.progs, k)
		in.fuzz = append(in.fuzz, fuzzCase{seed: seed})
	}
	return in.withDefaults(fl.e), nil
}

func (fl *fleetSet) close() error {
	err := fl.local.close()
	if perr := fl.pure.close(); err == nil {
		err = perr
	}
	return err
}

// ---------------------------------------------------------------------------
// paper-tables

// cheapExperiments finish in well under a second at Quick size; they stand
// in for the full set in the smoke run and in the bench probes of the other
// workloads.
var cheapExperiments = []string{"table1", "table2", "fig17", "fig18", "fig19", "fig20", "vector", "asid", "blockchain", "density"}

type tableSet struct {
	e       env
	kernels []kernel          // the pre-flight kernels
	ids     []string          // experiments to run (nil: bench.RunAll, every one)
	quick   bool              // bench.Options.Quick
	tables  map[string]string // experiment → formatted table of the first run
}

// setupTables is a pre-flight: every kernel the experiments draw on is
// assembled and run to halt on the golden emulator at Quick size, so a
// broken kernel is a set-up error before eight seconds of tables start.
func setupTables(ctx context.Context, sc scope, e env) (instance, error) {
	ts := &tableSet{e: e, tables: make(map[string]string)}
	if e.sz.smoke {
		ts.ids, ts.quick = e.sz.cheap(), true
	}
	kernels := append([]workloads.Workload{workloads.SpecLike, workloads.Stream}, workloads.All()...)
	for _, w := range e.sz.trim(kernels) {
		iters := e.sz.iters(w, 1) / 10 // bench.Options.Quick's scaling
		if iters < 1 {
			iters = 1
		}
		k, err := buildKernel(sc, w, iters)
		if err != nil {
			return nil, err
		}
		if err := k.golden(ctx, sc); err != nil {
			return nil, err
		}
		ts.kernels = append(ts.kernels, k)
	}
	return ts, nil
}

// runExperiments runs the given experiments (nil: bench.RunAll, every one)
// and records each as a child span from the wall time sched reports.
func runExperiments(ctx context.Context, sc scope, name string, ids []string, o bench.Options) []sched.Result {
	s := sc.begin("bench", name)
	o.Timeout = tablesTimeout
	o.OnProgress = func(r sched.Result) { s.add("bench", name+".exp", r.Wall, r.Instrs) }
	var rs []sched.Result
	if ids == nil {
		rs = bench.RunAll(ctx, o)
	} else {
		jobs := make([]sched.Job, len(ids))
		for i, id := range ids {
			id := id
			jobs[i] = sched.Job{ID: id, Run: func(ctx context.Context) (any, error) {
				e, ok := bench.Find(id)
				if !ok {
					return nil, fmt.Errorf("unknown experiment %q", id)
				}
				return e.Fn(ctx, o)
			}}
		}
		rs = sched.Run(ctx, jobs, sched.Options{Workers: o.Jobs, Timeout: o.Timeout, OnDone: o.OnProgress})
	}
	var instrs uint64
	for _, r := range rs {
		instrs += r.Instrs
	}
	s.end(instrs)
	return rs
}

// check turns sched results into ops: an experiment fails on its own error
// or when its formatted table differs from the first run's (any earlier
// repetition, any job width).
func (ts *tableSet) check(rs []sched.Result) []opResult {
	out := make([]opResult, 0, len(rs))
	for _, r := range rs {
		op := opResult{name: r.ID, instrs: r.Instrs, cycles: r.Cycles, err: r.Err}
		if res, ok := r.Value.(*perf.Result); ok && r.Err == nil {
			table := res.Format()
			if first, seen := ts.tables[r.ID]; !seen {
				ts.tables[r.ID] = table
			} else if first != table {
				op.err = fmt.Errorf("%s: table differs from the first run", r.ID)
			}
		}
		out = append(out, op)
	}
	return out
}

func (ts *tableSet) rep(ctx context.Context, sc scope) []opResult {
	return ts.check(runExperiments(ctx, sc, "bench.RunAll.j2", ts.ids, bench.Options{Quick: ts.quick, Jobs: 2}))
}

func (ts *tableSet) inputs(context.Context, scope) (ledgerInputs, error) {
	in := ledgerInputs{progs: ts.kernels, tables: ts}
	return in.withDefaults(ts.e), nil
}

func (ts *tableSet) close() error { return nil }
