package bench

import (
	"context"
	"errors"
	"testing"
	"time"

	"xt910/internal/perf"
	"xt910/internal/sched"
)

// TestParallelDeterminism is the harness's core contract: the formatted
// experiment tables are byte-identical whatever Options.Jobs is, because
// every job builds fresh simulator state and results assemble in fixed order.
func TestParallelDeterminism(t *testing.T) {
	// the cheap subset keeps the test fast while still covering arm fan-out
	// (vector: 3 arms), config sweeps (table1) and pure-model runs (asid)
	subset := []string{"table1", "table2", "asid", "vector"}
	render := func(jobs int) string {
		var out string
		for _, id := range subset {
			e, ok := Find(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			r, err := e.Fn(context.Background(), Options{Quick: true, Jobs: jobs})
			if err != nil {
				t.Fatalf("%s (jobs=%d): %v", id, jobs, err)
			}
			out += r.Format() + "\n"
		}
		return out
	}
	serial := render(1)
	parallel := render(3)
	if serial != parallel {
		t.Fatalf("jobs=1 and jobs=3 tables differ:\n--- jobs=1 ---\n%s\n--- jobs=3 ---\n%s", serial, parallel)
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 14 {
		t.Fatalf("registry has %d experiments, want the paper's 14", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Fn == nil {
			t.Fatalf("malformed registry entry %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if got, ok := Find(e.ID); !ok || got.ID != e.ID {
			t.Fatalf("Find(%q) failed", e.ID)
		}
	}
	if _, ok := Find("nonesuch"); ok {
		t.Fatal("Find must reject unknown ids")
	}
}

// TestRunAllSubsetMetrics checks the progress/metrics stream: every completed
// job reports wall time and the simulator-cycle counter credited by
// runProgram via sched.AddCycles.
func TestRunAllSubsetMetrics(t *testing.T) {
	var progress []string
	rs := runSubset(t, []string{"vector", "density"}, Options{
		Quick: true, Jobs: 2,
		OnProgress: func(r sched.Result) { progress = append(progress, r.ID) },
	})
	for _, r := range rs {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		if r.Wall <= 0 {
			t.Errorf("%s: no wall time recorded", r.ID)
		}
		if r.Cycles == 0 {
			t.Errorf("%s: no simulated cycles credited", r.ID)
		}
		if r.CyclesPerSec() <= 0 {
			t.Errorf("%s: cycles/sec not derivable", r.ID)
		}
	}
	if len(progress) != len(rs) {
		t.Fatalf("OnProgress fired %d times for %d jobs", len(progress), len(rs))
	}
}

// runSubset runs the experiments with the given ids through Run.
func runSubset(t *testing.T, ids []string, o Options) []sched.Result {
	t.Helper()
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps[i] = e
	}
	return Run(context.Background(), o, exps)
}

// TestExperimentCancellation proves a deadline cuts a long simulation short
// with a typed error instead of hanging the harness.
func TestExperimentCancellation(t *testing.T) {
	e, ok := Find("fig17")
	if !ok {
		t.Fatal("fig17 not registered")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.Fn(ctx, Options{Quick: true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the chunked run loop must notice promptly", elapsed)
	}
}

// TestAllPrefixOrder checks Run's order contract: results come back in the
// order the experiments were given, whatever order they finish in.
func TestAllPrefixOrder(t *testing.T) {
	rs := runSubset(t, []string{"table1", "table2"}, Options{Quick: true, Jobs: 2})
	var out []*perf.Result
	for _, r := range rs {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		out = append(out, r.Value.(*perf.Result))
	}
	if len(out) != 2 || out[0].ID != "table1" || out[1].ID != "table2" {
		t.Fatalf("results out of order: %+v", out)
	}
}
