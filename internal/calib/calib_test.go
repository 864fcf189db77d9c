package calib

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"xt910/internal/bench"
	"xt910/internal/perf"
	"xt910/internal/workloads"
)

// synLandscape builds a synthetic knob set and measurer with a known
// separable optimum: the point's error is 0.1*(|l2hit-14| + |width-6|), so
// coordinate descent must land on l2_hit=14 and issue_width=6 regardless of
// visit order, while the inert knob must stay at its stock index 0.
func synLandscape() ([]Knob, []Point, Measurer) {
	knobs := []Knob{
		{"syn.l2_hit", []int{10, 12, 14, 16}, func(e *bench.Env, v int) { e.L2Hit = v }},
		{"syn.width", []int{2, 6}, func(e *bench.Env, v int) { e.XT910.IssueWidth = v }},
		{"syn.inert", []int{1, 2, 3}, func(e *bench.Env, v int) { e.U74.TakenPenalty = v }},
	}
	points := []Point{
		{ID: "syn/objective", Figure: "syn", Desc: "synthetic", Weight: 1},
		{ID: "syn/holdout", Figure: "syn", Desc: "holdout"},
	}
	measure := func(ctx context.Context, o bench.Options, p Point) (perf.Row, error) {
		env := o.Env
		switch p.ID {
		case "syn/objective":
			d := 0.1 * (math.Abs(float64(env.L2Hit-14)) +
				math.Abs(float64(env.XT910.IssueWidth-6)))
			return perf.Row{Measured: math.Exp(d), Paper: 1.0}, nil // Err(m, 1.0) == d
		case "syn/holdout":
			return perf.Row{Measured: 2.0 * math.Exp(0.05*math.Abs(float64(env.L2Hit-10))), Paper: 2.0}, nil
		}
		return perf.Row{}, fmt.Errorf("unknown synthetic point %q", p.ID)
	}
	return knobs, points, measure
}

// TestSweepConvergence: the descent must recover the known optimum of the
// synthetic landscape from the all-stock start, whatever the seed permutes,
// and leave the knob that cannot affect the objective at its stock value.
func TestSweepConvergence(t *testing.T) {
	knobs, points, measure := synLandscape()
	for _, seed := range []int64{0, 1, 7, 42} {
		r, err := Sweep(context.Background(), Options{Seed: seed}, knobs, points, measure)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		chosen := map[string]int{}
		for _, k := range r.Knobs {
			chosen[k.Name] = k.Chosen
		}
		if chosen["syn.l2_hit"] != 14 || chosen["syn.width"] != 6 {
			t.Errorf("seed %d: did not recover optimum: %v", seed, chosen)
		}
		if chosen["syn.inert"] != 1 {
			t.Errorf("seed %d: inert knob moved off stock: %v", seed, chosen)
		}
		if r.ObjectiveCal > r.ObjectiveUncal {
			t.Errorf("seed %d: calibration made objective worse: %.4f -> %.4f",
				seed, r.ObjectiveUncal, r.ObjectiveCal)
		}
		if math.Abs(r.ObjectiveCal) > 1e-12 {
			t.Errorf("seed %d: optimum objective not zero: %g", seed, r.ObjectiveCal)
		}
		// The error table must carry both points (sorted by ID), including
		// the zero-weight holdout, with errors consistent with Err().
		if len(r.Points) != 2 || r.Points[0].ID != "syn/holdout" || r.Points[1].ID != "syn/objective" {
			t.Fatalf("seed %d: bad point table: %+v", seed, r.Points)
		}
		for _, p := range r.Points {
			if got := Err(p.Uncalibrated, p.Paper); math.Abs(got-p.ErrUncal) > 1e-12 {
				t.Errorf("seed %d: %s err_uncal %g inconsistent with Err()=%g", seed, p.ID, p.ErrUncal, got)
			}
			if got := Err(p.Calibrated, p.Paper); math.Abs(got-p.ErrCal) > 1e-12 {
				t.Errorf("seed %d: %s err_cal %g inconsistent with Err()=%g", seed, p.ID, p.ErrCal, got)
			}
		}
	}
}

// TestSweepFlatLandscapeKeepsStock: when no knob changes the objective every
// tie must resolve to the stock assignment, so the calibrated model is the
// uncalibrated model exactly.
func TestSweepFlatLandscapeKeepsStock(t *testing.T) {
	knobs, points, _ := synLandscape()
	flat := func(ctx context.Context, o bench.Options, p Point) (perf.Row, error) {
		return perf.Row{Measured: 1.5, Paper: 1.0}, nil
	}
	r, err := Sweep(context.Background(), Options{Seed: 3}, knobs, points, flat)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range r.Knobs {
		if k.Chosen != k.Base {
			t.Errorf("flat landscape moved knob %s: %d -> %d", k.Name, k.Base, k.Chosen)
		}
	}
	if r.ObjectiveCal != r.ObjectiveUncal {
		t.Errorf("flat landscape changed objective: %v -> %v", r.ObjectiveUncal, r.ObjectiveCal)
	}
	// A flat pass changes nothing, so the early-stop fires after one pass.
	if r.Passes != 1 {
		t.Errorf("flat landscape ran %d passes, want early stop after 1", r.Passes)
	}
}

// TestSweepDeterministicAcrossJobs: the FIDELITY document must be
// byte-identical at any -jobs width and across repeated runs with the same
// seed.
func TestSweepDeterministicAcrossJobs(t *testing.T) {
	knobs, points, measure := synLandscape()
	var docs [][]byte
	for _, jobs := range []int{1, 4, 8, 1} {
		r, err := Sweep(context.Background(), Options{Jobs: jobs, Seed: 9}, knobs, points, measure)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, b)
	}
	for i := 1; i < len(docs); i++ {
		if string(docs[i]) != string(docs[0]) {
			t.Fatalf("FIDELITY JSON differs between runs 0 and %d:\n%s\n----\n%s",
				i, docs[0], docs[i])
		}
	}
	var back Result
	if err := json.Unmarshal(docs[0], &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Schema != Schema {
		t.Fatalf("schema %q, want %q", back.Schema, Schema)
	}
}

// TestErrMetric pins the shape-error metric: zero at exact match, symmetric
// in over/undershoot, and scale-free.
func TestErrMetric(t *testing.T) {
	if Err(1.39, 1.39) != 0 {
		t.Error("Err at exact match not zero")
	}
	if d := math.Abs(Err(2, 1) - Err(0.5, 1)); d > 1e-12 {
		t.Errorf("Err not symmetric: %g", d)
	}
	if d := math.Abs(Err(2, 1) - Err(20, 10)); d > 1e-12 {
		t.Errorf("Err not scale-free: %g", d)
	}
}

// TestPaperTableGolden pins the checked-in points and the error-table
// rendering, so an accidental edit to the targets is a visible diff.
func TestPaperTableGolden(t *testing.T) {
	pts := PaperTable()
	want := map[string]string{
		"fig17/coremark-ratio": "fig17 XT-910 / U74 ratio",
		"fig18/eembc-geomean":  "fig18 geomean",
		"fig19/nbench-geomean": "fig19 geomean",
		"spec/xt910-vs-a73":    "spec XT-910 / A73 ratio",
	}
	if len(pts) != len(want) {
		t.Fatalf("PaperTable has %d points, want %d", len(pts), len(want))
	}
	weighted := 0
	for _, p := range pts {
		w, ok := want[p.ID]
		if !ok {
			t.Errorf("unexpected point %q", p.ID)
			continue
		}
		if got := p.Figure + " " + p.Row; got != w {
			t.Errorf("%s reads %q, want %q", p.ID, got, w)
		}
		if p.Weight > 0 {
			weighted++
			if p.ID != "fig17/coremark-ratio" {
				t.Errorf("unexpected weighted point %q", p.ID)
			}
		}
	}
	if weighted != 1 {
		t.Errorf("%d weighted points, want exactly 1 (fig17)", weighted)
	}

	// Golden formatting of a fixed document.
	r := &Result{
		Schema: Schema, Profile: "quick", Seed: 1, Passes: 2, Evals: 10,
		ObjectiveUncal: 0.4462, ObjectiveCal: 0.1,
		Knobs: []KnobReport{
			{Name: "u74.taken_penalty", Base: 1, Chosen: 0, Values: []int{1, 0}},
			{Name: "xt910.issue_width", Base: 8, Chosen: 8, Values: []int{8, 6, 4}},
		},
		Points: []PointReport{{
			ID: "fig17/coremark-ratio", Figure: "fig17", Paper: 1.392,
			Weight: 1, Uncalibrated: 2.175, Calibrated: 1.539,
			ErrUncal: 0.4462, ErrCal: 0.1,
		}},
	}
	golden := "== fidelity: paper-vs-measured shape error (quick profile, seed 1, 10 evals) ==\n" +
		"  objective (weighted mean |ln m/p|): 0.4462 uncalibrated -> 0.1000 calibrated\n" +
		"  point                     paper    uncal      cal err-uncal   err-cal\n" +
		"  fig17/coremark-ratio      1.392    2.175    1.539    0.4462    0.1000  (objective)\n" +
		"  knob u74.taken_penalty      1 -> 0\n"
	if got := r.Format(); got != golden {
		t.Errorf("Format golden mismatch:\n got:\n%s\nwant:\n%s", got, golden)
	}
}

// TestPaperPointsAreExperimentRows: every point names an experiment and a
// row of its table, that row carries the paper's value, and MeasurePoint at
// StockEnv returns exactly what a plain run of the experiment prints.
func TestPaperPointsAreExperimentRows(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulator measurement")
	}
	paper := map[string]float64{
		"fig17/coremark-ratio": 7.1 / 5.1,
		"fig18/eembc-geomean":  1.0,
		"fig19/nbench-geomean": 1.0,
		"spec/xt910-vs-a73":    6.11 / 6.75,
	}
	ctx, _ := bench.Scoped(context.Background(), 2)
	for _, p := range PaperTable() {
		e, ok := bench.Find(p.Figure)
		if !ok {
			t.Fatalf("%s: no experiment %q", p.ID, p.Figure)
		}
		r := bench.Run(ctx, bench.Options{Quick: true, Jobs: 2}, []bench.Experiment{e})[0]
		if r.Err != nil {
			t.Fatalf("%s: %v", p.ID, r.Err)
		}
		var printed *perf.Row
		for _, row := range r.Value.(*perf.Result).Rows {
			if row.Label == p.Row {
				printed = &row
			}
		}
		if printed == nil {
			t.Fatalf("%s: %s prints no row %q", p.ID, p.Figure, p.Row)
		}
		if printed.Paper != paper[p.ID] {
			t.Errorf("%s: paper value %v, want %v", p.ID, printed.Paper, paper[p.ID])
		}
		got, err := MeasurePoint(ctx, bench.Options{Quick: true, Jobs: 2, Env: bench.StockEnv()}, p)
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		if got != *printed {
			t.Errorf("%s at StockEnv: %+v, the table prints %+v", p.ID, got, *printed)
		}
	}
}

// TestMeasurePointFig17 runs the real fig17 measurement quickly on the stock
// environment: the ratio must be finite, above 1 (the XT-910 model is faster
// than the U74-class model), and identical at any -jobs width.
func TestMeasurePointFig17(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulator measurement")
	}
	ctx := context.Background()
	p := PaperTable()[0]
	r1, err := MeasurePoint(ctx, bench.Options{Quick: true, Jobs: 1, Env: bench.StockEnv()}, p)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := MeasurePoint(ctx, bench.Options{Quick: true, Jobs: 4, Env: bench.StockEnv()}, p)
	if err != nil {
		t.Fatal(err)
	}
	v1, v4 := r1.Measured, r4.Measured
	if v1 != v4 {
		t.Fatalf("fig17 ratio differs across jobs widths: %v vs %v", v1, v4)
	}
	if !(v1 > 1 && v1 < 10) {
		t.Fatalf("implausible coremark ratio %v", v1)
	}
}

// TestSweepReusesUntouchedArms: the sweep is one run scope, so moving a U74
// knob with the real measurer re-simulates the U74 arm only — every XT-910
// and A73 arm of the cheap points is simulated once however many assignments
// and error-table passes ask for it.
func TestSweepReusesUntouchedArms(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulator measurement")
	}
	var knobs []Knob
	for _, k := range Knobs() {
		if k.Name == "u74.taken_penalty" {
			knobs = append(knobs, k)
		}
	}
	var points []Point
	for _, p := range PaperTable() {
		if p.ID != "spec/xt910-vs-a73" { // the long one adds time, not coverage
			points = append(points, p)
		}
	}
	ctx, scope := bench.Scoped(context.Background(), 2)
	if _, err := Sweep(ctx, Options{Quick: true, Jobs: 2, Seed: 1}, knobs, points, MeasurePoint); err != nil {
		t.Fatal(err)
	}
	// fig17 runs CoreMark on all three cores, fig18 and fig19 each suite
	// kernel on the XT-910 and the A73-class
	suites := len(workloads.EEMBC()) + len(workloads.NBench())
	xt910, a73, u74 := 1+suites, 1+suites, len(knobs[0].Values)
	run, reused := scope.Sims()
	if want := xt910 + a73 + u74; run != want {
		t.Errorf("%d simulations, want %d: %d XT-910 arms, %d A73 arms, one U74 arm per knob value (%d)",
			run, want, xt910, a73, u74)
	}
	if reused == 0 {
		t.Error("nothing was reused across assignments")
	}
}

// TestMeasurePointUnknown: a point whose experiment or row does not exist
// must error, not silently return 0.
func TestMeasurePointUnknown(t *testing.T) {
	for _, p := range []Point{
		{ID: "nope", Figure: "nope"},
		{ID: "table2/nope", Figure: "table2", Row: "nope"},
	} {
		if _, err := MeasurePoint(context.Background(), bench.Options{}, p); err == nil {
			t.Errorf("%s: expected an error", p.ID)
		}
	}
}
