package calib

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"xt910/internal/bench"
	"xt910/internal/workloads"
)

// synLandscape builds a synthetic knob set and measurer with a known
// separable optimum: the point's error is 0.1*(|l2hit-14| + |width-6|), so
// coordinate descent must land on l2_hit=14 and issue_width=6 regardless of
// visit order, while the inert knob must stay at its stock index 0.
func synLandscape() ([]Knob, []Point, Measurer) {
	knobs := []Knob{
		{"syn.l2_hit", []int{10, 12, 14, 16}, func(e *Env, v int) { e.L2Hit = v }},
		{"syn.width", []int{2, 6}, func(e *Env, v int) { e.XT910.IssueWidth = v }},
		{"syn.inert", []int{1, 2, 3}, func(e *Env, v int) { e.U74.TakenPenalty = v }},
	}
	points := []Point{
		{ID: "syn/objective", Figure: "syn", Desc: "synthetic", Paper: 1.0, Weight: 1},
		{ID: "syn/holdout", Figure: "syn", Desc: "holdout", Paper: 2.0},
	}
	measure := func(ctx context.Context, o bench.Options, env Env, id string) (float64, error) {
		switch id {
		case "syn/objective":
			d := 0.1 * (math.Abs(float64(env.L2Hit-14)) +
				math.Abs(float64(env.XT910.IssueWidth-6)))
			return math.Exp(d), nil // Err(m, 1.0) == d
		case "syn/holdout":
			return 2.0 * math.Exp(0.05*math.Abs(float64(env.L2Hit-10))), nil
		}
		return 0, fmt.Errorf("unknown synthetic point %q", id)
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
	flat := func(ctx context.Context, o bench.Options, env Env, id string) (float64, error) {
		return 1.5, nil
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

// TestPaperTableGolden pins the checked-in paper numbers and the error-table
// rendering, so an accidental edit to the targets is a visible diff.
func TestPaperTableGolden(t *testing.T) {
	pts := PaperTable()
	want := map[string]float64{
		"fig17/coremark-ratio": 7.1 / 5.1,
		"fig18/eembc-geomean":  1.0,
		"fig19/nbench-geomean": 1.0,
		"spec/xt910-vs-a73":    6.11 / 6.75,
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
		if p.Paper != w {
			t.Errorf("%s paper value %v, want %v", p.ID, p.Paper, w)
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

// TestMeasurePointFig17 runs the real fig17 measurement quickly on the stock
// environment: the ratio must be finite, above 1 (the XT-910 model is faster
// than the U74-class model), and identical at any -jobs width.
func TestMeasurePointFig17(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulator measurement")
	}
	ctx := context.Background()
	env := BaseEnv()
	v1, err := MeasurePoint(ctx, bench.Options{Quick: true, Jobs: 1}, env, "fig17/coremark-ratio")
	if err != nil {
		t.Fatal(err)
	}
	v4, err := MeasurePoint(ctx, bench.Options{Quick: true, Jobs: 4}, env, "fig17/coremark-ratio")
	if err != nil {
		t.Fatal(err)
	}
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
	suites := len(workloads.EEMBC()) + len(workloads.NBench())
	xt910, a73, u74 := 1+suites, suites, len(knobs[0].Values)
	run, reused := scope.Sims()
	if want := xt910 + a73 + u74; run != want {
		t.Errorf("%d simulations, want %d: %d XT-910 arms, %d A73 arms, one U74 arm per knob value (%d)",
			run, want, xt910, a73, u74)
	}
	if reused == 0 {
		t.Error("nothing was reused across assignments")
	}
}

// TestMeasurePointUnknown: unknown IDs must error, not silently return 0.
func TestMeasurePointUnknown(t *testing.T) {
	_, err := MeasurePoint(context.Background(), bench.Options{}, BaseEnv(), "nope")
	if err == nil {
		t.Fatal("expected error for unknown point")
	}
}
