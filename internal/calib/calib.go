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
	"xt910/internal/perf"
)

// Knob is one timing parameter the sweep may adjust. Values[0] is the stock
// setting (the coordinate descent starts there, and ties resolve back to
// it), so an empty sweep reproduces the uncalibrated model exactly.
type Knob struct {
	Name   string
	Values []int
	Apply  func(*bench.Env, int)
}

// Knobs is the stock calibration knob set over internal/core/config.go: the
// branch penalties, L1/L2 latencies, MSHR count and issue widths the ISSUE's
// gap analysis names. The measured CoreMark ratio overshoots the paper's
// (the model's U74-class is too slow relative to its XT-910), so the grid
// spans both directions: settings that speed the U74 model up and settings
// that slow the XT-910 model down.
func Knobs() []Knob {
	return []Knob{
		{"xt910.l1d_hit_latency", []int{2, 3, 4, 5, 6}, func(e *bench.Env, v int) { e.XT910.L1D.HitLatency = v }},
		{"xt910.taken_penalty", []int{2, 3, 4, 5, 6}, func(e *bench.Env, v int) { e.XT910.TakenPenalty = v }},
		{"xt910.issue_width", []int{8, 6, 4, 3}, func(e *bench.Env, v int) { e.XT910.IssueWidth = v }},
		{"xt910.l1d_mshrs", []int{8, 4, 2, 1}, func(e *bench.Env, v int) { e.XT910.L1D.MSHRs = v }},
		{"u74.taken_penalty", []int{1, 0}, func(e *bench.Env, v int) { e.U74.TakenPenalty = v }},
		{"u74.mispredict_min", []int{3, 2, 1}, func(e *bench.Env, v int) { e.U74.MispredictMin = v }},
		{"u74.issue_width", []int{2, 3, 4}, func(e *bench.Env, v int) { e.U74.IssueWidth = v }},
		{"u74.frontend_delay", []int{1, 0}, func(e *bench.Env, v int) { e.U74.FrontendDelay = v }},
		{"sys.l2_hit_latency", []int{coherence.StockHitLatency, 6, 14, 20, 28}, func(e *bench.Env, v int) { e.L2Hit = v }},
	}
}

// apply builds the Env a value assignment (one index per knob) describes.
func apply(knobs []Knob, assign []int) bench.Env {
	e := bench.StockEnv()
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

// Measurer returns one point's table row — the measured value and the
// paper's — under o.Env. Sweep takes it as a parameter so tests can
// substitute synthetic landscapes; MeasurePoint is the real one.
type Measurer func(ctx context.Context, o bench.Options, p Point) (perf.Row, error)

// MeasurePoint runs the point's experiment under o.Env and returns the row
// the point names: the number xtbench prints for that figure, on the env's
// machine.
func MeasurePoint(ctx context.Context, o bench.Options, p Point) (perf.Row, error) {
	e, ok := bench.Find(p.Figure)
	if !ok {
		return perf.Row{}, fmt.Errorf("calib: point %s: unknown experiment %q", p.ID, p.Figure)
	}
	r := bench.Run(ctx, o, []bench.Experiment{e})[0]
	if r.Err != nil {
		return perf.Row{}, r.Err
	}
	for _, row := range r.Value.(*perf.Result).Rows {
		if row.Label == p.Row {
			return row, nil
		}
	}
	return perf.Row{}, fmt.Errorf("calib: point %s: %s has no row %q", p.ID, p.Figure, p.Row)
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
	// at is the harness options under the env an assignment describes
	at := func(assign []int) bench.Options {
		return bench.Options{Quick: o.Quick, Jobs: o.Jobs, Env: apply(knobs, assign)}
	}

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
		bo := at(assign)
		var sum, wsum float64
		for _, p := range weighted {
			row, err := measure(ctx, bo, p)
			if err != nil {
				return 0, fmt.Errorf("point %s: %w", p.ID, err)
			}
			sum += p.Weight * Err(row.Measured, row.Paper)
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
	uncal, cal := at(base), at(assign)
	for _, p := range points {
		mu, err := measure(ctx, uncal, p)
		if err != nil {
			return nil, fmt.Errorf("point %s (base): %w", p.ID, err)
		}
		mc, err := measure(ctx, cal, p)
		if err != nil {
			return nil, fmt.Errorf("point %s (calibrated): %w", p.ID, err)
		}
		res.Points = append(res.Points, PointReport{
			ID: p.ID, Figure: p.Figure, Desc: p.Desc, Paper: mu.Paper, Weight: p.Weight,
			Uncalibrated: mu.Measured, Calibrated: mc.Measured,
			ErrUncal: Err(mu.Measured, mu.Paper), ErrCal: Err(mc.Measured, mc.Paper),
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
