package calib

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"xt910/internal/bench"
	"xt910/internal/coherence"
	"xt910/internal/core"
	"xt910/internal/perf"
	"xt910/internal/sched"
	"xt910/internal/workloads"
)

// Env is the knob-application surface: the three comparison-core
// configurations plus the harness machine's L2 hit latency. A Knob mutates one
// field; the measurement functions read whichever configs their point needs.
type Env struct {
	XT910 core.Config
	U74   core.Config
	A73   core.Config
	L2Hit int
}

// BaseEnv is the uncalibrated model: the stock configurations every
// experiment in internal/bench runs with.
func BaseEnv() Env {
	return Env{
		XT910: core.XT910Config(),
		U74:   core.U74Config(),
		A73:   core.A73Config(),
		L2Hit: coherence.StockHitLatency,
	}
}

// Knob is one timing parameter the sweep may adjust. Values[0] is the stock
// setting (the coordinate descent starts there, and ties resolve back to
// it), so an empty sweep reproduces the uncalibrated model exactly.
type Knob struct {
	Name   string
	Values []int
	Apply  func(*Env, int)
}

// Knobs is the stock calibration knob set over internal/core/config.go: the
// branch penalties, L1/L2 latencies, MSHR count and issue widths the ISSUE's
// gap analysis names. The measured CoreMark ratio overshoots the paper's
// (the model's U74-class is too slow relative to its XT-910), so the grid
// spans both directions: settings that speed the U74 model up and settings
// that slow the XT-910 model down.
func Knobs() []Knob {
	return []Knob{
		{"xt910.l1d_hit_latency", []int{2, 3, 4, 5, 6}, func(e *Env, v int) { e.XT910.L1D.HitLatency = v }},
		{"xt910.taken_penalty", []int{2, 3, 4, 5, 6}, func(e *Env, v int) { e.XT910.TakenPenalty = v }},
		{"xt910.issue_width", []int{8, 6, 4, 3}, func(e *Env, v int) { e.XT910.IssueWidth = v }},
		{"xt910.l1d_mshrs", []int{8, 4, 2, 1}, func(e *Env, v int) { e.XT910.L1D.MSHRs = v }},
		{"u74.taken_penalty", []int{1, 0}, func(e *Env, v int) { e.U74.TakenPenalty = v }},
		{"u74.mispredict_min", []int{3, 2, 1}, func(e *Env, v int) { e.U74.MispredictMin = v }},
		{"u74.issue_width", []int{2, 3, 4}, func(e *Env, v int) { e.U74.IssueWidth = v }},
		{"u74.frontend_delay", []int{1, 0}, func(e *Env, v int) { e.U74.FrontendDelay = v }},
		{"sys.l2_hit_latency", []int{coherence.StockHitLatency, 6, 14, 20, 28}, func(e *Env, v int) { e.L2Hit = v }},
	}
}

// apply builds the Env a value assignment (one index per knob) describes.
func apply(knobs []Knob, assign []int) Env {
	e := BaseEnv()
	for i, k := range knobs {
		k.Apply(&e, k.Values[assign[i]])
	}
	return e
}

// Err is the per-point shape-error metric: |ln(measured/paper)|, symmetric
// in over- and under-shoot and unit-free across ratio scales.
func Err(measured, paper float64) float64 {
	return math.Abs(math.Log(measured / paper))
}

// Measurer evaluates one point's scalar under an Env. Sweep takes it as a
// parameter so tests can substitute synthetic landscapes; MeasurePoint is
// the real one.
type Measurer func(ctx context.Context, o bench.Options, env Env, id string) (float64, error)

// runSpec is one simulator run inside a point measurement.
type runSpec struct {
	workload string
	iters    int
	cfg      core.Config
}

// measureRuns starts the specs all at once — the run scope (the sweep's, or
// this call's own) bounds how many simulate — and returns their results in
// submission order (deterministic at any concurrency).
func measureRuns(ctx context.Context, o bench.Options, env Env, specs []runSpec) ([]bench.MeasureRun, error) {
	ctx, _ = bench.Scoped(ctx, o.Jobs)
	jobs := make([]sched.Job, len(specs))
	for i, s := range specs {
		s := s
		jobs[i] = sched.Job{ID: "calib/" + s.workload + "/" + s.cfg.Name, Run: func(ctx context.Context) (any, error) {
			return bench.MeasureWorkload(ctx, o, s.workload, s.iters, s.cfg, env.L2Hit)
		}}
	}
	rs := sched.Run(ctx, jobs, sched.Options{Workers: len(jobs)})
	if err := sched.FirstError(rs); err != nil {
		return nil, err
	}
	out := make([]bench.MeasureRun, len(rs))
	for i, r := range rs {
		out[i] = r.Value.(bench.MeasureRun)
	}
	return out, nil
}

// MeasurePoint evaluates one PaperTable point under env: the same kernels,
// iteration scaling and ratio conventions as the corresponding experiment in
// internal/bench, so the fidelity table lines up with EXPERIMENTS.md.
func MeasurePoint(ctx context.Context, o bench.Options, env Env, id string) (float64, error) {
	switch id {
	case "fig17/coremark-ratio":
		rs, err := measureRuns(ctx, o, env, []runSpec{
			{"coremark", 0, env.XT910},
			{"coremark", 0, env.U74},
		})
		if err != nil {
			return 0, err
		}
		if rs[0].Exit != rs[1].Exit {
			return 0, fmt.Errorf("calib: coremark architectural mismatch across configs")
		}
		return float64(rs[1].Cycles) / float64(rs[0].Cycles), nil
	case "fig18/eembc-geomean":
		return suiteGeomean(ctx, o, env, workloads.EEMBC())
	case "fig19/nbench-geomean":
		return suiteGeomean(ctx, o, env, workloads.NBench())
	case "spec/xt910-vs-a73":
		iters := workloads.SpecLike.DefaultIters
		if o.Quick {
			iters = 1
		}
		rs, err := measureRuns(ctx, o, env, []runSpec{
			{workloads.SpecLike.Name, iters, env.XT910},
			{workloads.SpecLike.Name, iters, env.A73},
		})
		if err != nil {
			return 0, err
		}
		if rs[0].Exit != rs[1].Exit {
			return 0, fmt.Errorf("calib: speclike architectural mismatch across configs")
		}
		return float64(rs[1].Cycles) / float64(rs[0].Cycles), nil
	}
	return 0, fmt.Errorf("calib: unknown point %q", id)
}

// suiteGeomean mirrors bench.suiteVsA73's quantity: the geomean over the
// suite of per-kernel cycle ratios A73/XT910 (>1 means the XT-910 model is
// faster).
func suiteGeomean(ctx context.Context, o bench.Options, env Env, suite []workloads.Workload) (float64, error) {
	specs := make([]runSpec, 0, 2*len(suite))
	for _, w := range suite {
		specs = append(specs,
			runSpec{w.Name, 0, env.XT910},
			runSpec{w.Name, 0, env.A73})
	}
	rs, err := measureRuns(ctx, o, env, specs)
	if err != nil {
		return 0, err
	}
	ratios := make([]float64, len(suite))
	for i := range suite {
		xt, a73 := rs[2*i], rs[2*i+1]
		if xt.Exit != a73.Exit {
			return 0, fmt.Errorf("calib: %s architectural mismatch across configs", suite[i].Name)
		}
		ratios[i] = float64(a73.Cycles) / float64(xt.Cycles)
	}
	return perf.Geomean(ratios), nil
}

// Options tunes a sweep.
type Options struct {
	Quick bool
	Jobs  int
	Seed  int64
}

// maxPasses bounds the coordinate-descent passes over the knob set; the
// descent also stops early once a pass changes nothing.
const maxPasses = 2

// KnobReport records one knob's sweep outcome.
type KnobReport struct {
	Name   string `json:"name"`
	Base   int    `json:"base"`
	Chosen int    `json:"chosen"`
	Values []int  `json:"values"`
}

// PointReport is one row of the fidelity error table.
type PointReport struct {
	ID           string  `json:"id"`
	Figure       string  `json:"figure"`
	Desc         string  `json:"desc"`
	Paper        float64 `json:"paper"`
	Weight       float64 `json:"weight"`
	Uncalibrated float64 `json:"uncalibrated"`
	Calibrated   float64 `json:"calibrated"`
	ErrUncal     float64 `json:"err_uncal"`
	ErrCal       float64 `json:"err_cal"`
}

// Schema identifies the FIDELITY_*.json document layout.
const Schema = "xt910-fidelity-v1"

// Result is the fidelity document: the sweep's provenance (seed, profile,
// evaluation count), the chosen knob assignment, and the per-point error
// table at the base and calibrated assignments. Simulation is deterministic,
// so the JSON encoding is byte-identical across hosts and -jobs widths.
type Result struct {
	Schema  string `json:"schema"`
	Profile string `json:"profile"`
	Seed    int64  `json:"seed"`
	Passes  int    `json:"passes"`
	Evals   int    `json:"evals"`

	ObjectiveUncal float64 `json:"objective_uncal"`
	ObjectiveCal   float64 `json:"objective_cal"`

	Knobs  []KnobReport  `json:"knobs"`
	Points []PointReport `json:"points"`
}

// Run sweeps the stock knob set against the checked-in paper table with real
// simulator measurements.
func Run(ctx context.Context, o Options) (*Result, error) {
	return Sweep(ctx, o, Knobs(), PaperTable(), MeasurePoint)
}

// Sweep is seeded coordinate descent: starting from the all-stock
// assignment, it visits the knobs in a seed-permuted order and greedily
// adopts, per knob, the grid value minimizing the weighted mean shape error
// over the Weight > 0 points (ties resolve to the earliest grid index, so a
// flat landscape keeps the stock setting). Passes repeat, at most maxPasses,
// until a pass changes nothing. The descent only ever adopts improvements, so
// the calibrated objective is never worse than the uncalibrated one; every
// point — weighted or not — is then re-measured at both assignments for the
// error table. The whole sweep is one run scope: an assignment that moves
// one core's knob re-simulates that core's arms only.
func Sweep(ctx context.Context, o Options, knobs []Knob, points []Point, measure Measurer) (*Result, error) {
	ctx, _ = bench.Scoped(ctx, o.Jobs)
	bo := bench.Options{Quick: o.Quick, Jobs: o.Jobs}

	var weighted []Point
	for _, p := range points {
		if p.Weight > 0 {
			weighted = append(weighted, p)
		}
	}

	evals := 0
	memo := map[string]float64{}
	objective := func(assign []int) (float64, error) {
		key := assignKey(assign)
		if v, ok := memo[key]; ok {
			return v, nil
		}
		env := apply(knobs, assign)
		var sum, wsum float64
		for _, p := range weighted {
			m, err := measure(ctx, bo, env, p.ID)
			if err != nil {
				return 0, fmt.Errorf("point %s: %w", p.ID, err)
			}
			sum += p.Weight * Err(m, p.Paper)
			wsum += p.Weight
		}
		obj := 0.0
		if wsum > 0 {
			obj = sum / wsum
		}
		evals++
		memo[key] = obj
		return obj, nil
	}

	assign := make([]int, len(knobs))
	base := append([]int(nil), assign...)
	objUncal, err := objective(base)
	if err != nil {
		return nil, err
	}

	order := rand.New(rand.NewSource(o.Seed)).Perm(len(knobs))
	ranPasses := 0
	for pass := 0; pass < maxPasses && len(weighted) > 0; pass++ {
		changed := false
		for _, ki := range order {
			bestIdx, bestObj := -1, math.Inf(1)
			for vi := range knobs[ki].Values {
				cand := append([]int(nil), assign...)
				cand[ki] = vi
				obj, err := objective(cand)
				if err != nil {
					return nil, err
				}
				if obj < bestObj {
					bestIdx, bestObj = vi, obj
				}
			}
			if bestIdx != assign[ki] {
				assign[ki] = bestIdx
				changed = true
			}
		}
		ranPasses++
		if !changed {
			break
		}
	}
	objCal, err := objective(assign)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Schema:         Schema,
		Profile:        profile(o.Quick),
		Seed:           o.Seed,
		Passes:         ranPasses,
		Evals:          evals,
		ObjectiveUncal: objUncal,
		ObjectiveCal:   objCal,
	}
	for i, k := range knobs {
		res.Knobs = append(res.Knobs, KnobReport{
			Name: k.Name, Base: k.Values[0], Chosen: k.Values[assign[i]],
			Values: k.Values,
		})
	}
	baseEnv, calEnv := apply(knobs, base), apply(knobs, assign)
	for _, p := range points {
		mu, err := measure(ctx, bo, baseEnv, p.ID)
		if err != nil {
			return nil, fmt.Errorf("point %s (base): %w", p.ID, err)
		}
		mc, err := measure(ctx, bo, calEnv, p.ID)
		if err != nil {
			return nil, fmt.Errorf("point %s (calibrated): %w", p.ID, err)
		}
		res.Points = append(res.Points, PointReport{
			ID: p.ID, Figure: p.Figure, Desc: p.Desc, Paper: p.Paper, Weight: p.Weight,
			Uncalibrated: mu, Calibrated: mc,
			ErrUncal: Err(mu, p.Paper), ErrCal: Err(mc, p.Paper),
		})
	}
	sort.Slice(res.Points, func(i, j int) bool { return res.Points[i].ID < res.Points[j].ID })
	return res, nil
}

func profile(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}

func assignKey(assign []int) string {
	var b strings.Builder
	for _, v := range assign {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}

// Format renders the fidelity document as an aligned text table.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== fidelity: paper-vs-measured shape error (%s profile, seed %d, %d evals) ==\n",
		r.Profile, r.Seed, r.Evals)
	fmt.Fprintf(&b, "  objective (weighted mean |ln m/p|): %.4f uncalibrated -> %.4f calibrated\n",
		r.ObjectiveUncal, r.ObjectiveCal)
	fmt.Fprintf(&b, "  %-22s %8s %8s %8s %9s %9s\n", "point", "paper", "uncal", "cal", "err-uncal", "err-cal")
	for _, p := range r.Points {
		tag := ""
		if p.Weight > 0 {
			tag = "  (objective)"
		}
		fmt.Fprintf(&b, "  %-22s %8.3f %8.3f %8.3f %9.4f %9.4f%s\n",
			p.ID, p.Paper, p.Uncalibrated, p.Calibrated, p.ErrUncal, p.ErrCal, tag)
	}
	changed := 0
	for _, k := range r.Knobs {
		if k.Chosen != k.Base {
			fmt.Fprintf(&b, "  knob %-22s %d -> %d\n", k.Name, k.Base, k.Chosen)
			changed++
		}
	}
	if changed == 0 {
		fmt.Fprintf(&b, "  knobs: all at stock settings\n")
	}
	return b.String()
}
