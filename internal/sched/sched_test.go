package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestResultsInJobOrder(t *testing.T) {
	// jobs finish in reverse submission order; results must not
	const n = 8
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{ID: fmt.Sprintf("job%d", i), Run: func(ctx context.Context) (any, error) {
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			return i, nil
		}}
	}
	rs := Run(context.Background(), jobs, Options{Workers: n})
	if len(rs) != n {
		t.Fatalf("got %d results, want %d", len(rs), n)
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		if r.Value.(int) != i {
			t.Fatalf("result %d holds value %v — completion order leaked into result order", i, r.Value)
		}
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	mk := func() []Job {
		jobs := make([]Job, 16)
		for i := range jobs {
			i := i
			jobs[i] = Job{ID: fmt.Sprintf("j%d", i), Run: func(ctx context.Context) (any, error) {
				return i * i, nil
			}}
		}
		return jobs
	}
	serial := Run(context.Background(), mk(), Options{Workers: 1})
	par := Run(context.Background(), mk(), Options{Workers: 8})
	for i := range serial {
		if serial[i].Value != par[i].Value || serial[i].ID != par[i].ID {
			t.Fatalf("worker count changed result %d: %v vs %v", i, serial[i], par[i])
		}
	}
}

func TestPanicBecomesJobError(t *testing.T) {
	jobs := []Job{
		{ID: "ok", Run: func(ctx context.Context) (any, error) { return 1, nil }},
		{ID: "boom", Run: func(ctx context.Context) (any, error) { panic("simulated crash") }},
		{ID: "also-ok", Run: func(ctx context.Context) (any, error) { return 3, nil }},
	}
	rs := Run(context.Background(), jobs, Options{Workers: 2})
	if rs[0].Err != nil || rs[2].Err != nil {
		t.Fatalf("healthy jobs must survive a sibling panic: %v / %v", rs[0].Err, rs[2].Err)
	}
	err := rs[1].Err
	if err == nil {
		t.Fatal("panic was not converted into an error")
	}
	var je *JobError
	if !errors.As(err, &je) || je.ID != "boom" {
		t.Fatalf("want *JobError{ID: boom}, got %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want wrapped *PanicError, got %v", err)
	}
	if pe.Value != "simulated crash" || len(pe.Stack) == 0 {
		t.Fatalf("panic payload lost: %v", pe)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error does not name the job: %q", err)
	}
}

func TestPoolTimeoutDefault(t *testing.T) {
	jobs := []Job{{ID: "slow", Run: func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}}
	rs := Run(context.Background(), jobs, Options{Timeout: 5 * time.Millisecond})
	if !errors.Is(rs[0].Err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", rs[0].Err)
	}
}

func TestCancelledRunMarksUnstartedJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []Job{
		{ID: "a", Run: func(ctx context.Context) (any, error) { return 1, nil }},
		{ID: "b", Run: func(ctx context.Context) (any, error) { return 2, nil }},
	}
	rs := Run(ctx, jobs, Options{Workers: 1})
	for _, r := range rs {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("job %s: want Canceled, got %v", r.ID, r.Err)
		}
	}
}

func TestAddCyclesMetrics(t *testing.T) {
	jobs := []Job{{ID: "sim", Run: func(ctx context.Context) (any, error) {
		AddCycles(ctx, 1000)
		AddCycles(ctx, 234)
		return nil, nil
	}}}
	rs := Run(context.Background(), jobs, Options{})
	if rs[0].Cycles != 1234 {
		t.Fatalf("cycles = %d, want 1234", rs[0].Cycles)
	}
	if rs[0].Wall <= 0 {
		t.Fatal("wall time not recorded")
	}
	if rs[0].CyclesPerSec() <= 0 {
		t.Fatal("cycles/sec not derivable")
	}
	// AddCycles on a foreign context is a harmless no-op
	AddCycles(context.Background(), 5)
}

func TestNestedPoolsPropagateCycles(t *testing.T) {
	outer := []Job{{ID: "outer", Run: func(ctx context.Context) (any, error) {
		inner := []Job{
			{ID: "i0", Run: func(ctx context.Context) (any, error) { AddCycles(ctx, 100); return nil, nil }},
			{ID: "i1", Run: func(ctx context.Context) (any, error) { AddCycles(ctx, 200); return nil, nil }},
		}
		irs := Run(ctx, inner, Options{Workers: 2})
		if err := FirstError(irs); err != nil {
			return nil, err
		}
		AddCycles(ctx, 1)
		return nil, nil
	}}}
	rs := Run(context.Background(), outer, Options{})
	if rs[0].Cycles != 301 {
		t.Fatalf("outer job cycles = %d, want 301 (inner pools must credit the enclosing job)", rs[0].Cycles)
	}
}

func TestOnDoneStreamsEveryJob(t *testing.T) {
	var seen atomic.Int32
	jobs := make([]Job, 10)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprintf("j%d", i), Run: func(ctx context.Context) (any, error) { return nil, nil }}
	}
	Run(context.Background(), jobs, Options{Workers: 4, OnDone: func(Result) { seen.Add(1) }})
	if got := seen.Load(); got != 10 {
		t.Fatalf("OnDone fired %d times, want 10", got)
	}
}

func TestOnResultStreamsIndexedResults(t *testing.T) {
	jobs := make([]Job, 12)
	for i := range jobs {
		i := i
		jobs[i] = Job{ID: fmt.Sprintf("j%d", i), Run: func(ctx context.Context) (any, error) { return i * i, nil }}
	}
	// The callback must see every job exactly once, with the index matching
	// the submission slot, and callbacks must be serialized (no lock needed
	// around the map).
	seen := make(map[int]int)
	rs := Run(context.Background(), jobs, Options{Workers: 4, OnResult: func(i int, r Result) {
		seen[i] = r.Value.(int)
	}})
	if len(seen) != len(jobs) {
		t.Fatalf("OnResult fired for %d jobs, want %d", len(seen), len(jobs))
	}
	for i := range jobs {
		if seen[i] != i*i {
			t.Fatalf("OnResult index %d carried value %d, want %d", i, seen[i], i*i)
		}
		// the batch return must be unaffected by streaming
		if rs[i].Value.(int) != i*i {
			t.Fatalf("batch result %d = %v, want %d", i, rs[i].Value, i*i)
		}
	}
}

func TestFirstErrorIsJobOrder(t *testing.T) {
	errB := errors.New("b failed")
	errD := errors.New("d failed")
	jobs := []Job{
		{ID: "a", Run: func(ctx context.Context) (any, error) { return nil, nil }},
		{ID: "b", Run: func(ctx context.Context) (any, error) {
			time.Sleep(10 * time.Millisecond)
			return nil, errB
		}},
		{ID: "c", Run: func(ctx context.Context) (any, error) { return nil, nil }},
		{ID: "d", Run: func(ctx context.Context) (any, error) { return nil, errD }},
	}
	rs := Run(context.Background(), jobs, Options{Workers: 4})
	if err := FirstError(rs); !errors.Is(err, errB) {
		t.Fatalf("FirstError must report job order, not completion order: got %v", err)
	}
	if FirstError(nil) != nil {
		t.Fatal("FirstError(nil) must be nil")
	}
}

func TestEmptyAndDefaults(t *testing.T) {
	if rs := Run(context.Background(), nil, Options{}); len(rs) != 0 {
		t.Fatalf("empty job list must yield empty results, got %d", len(rs))
	}
	// Workers <= 0 falls back to GOMAXPROCS and must still work
	rs := Run(context.Background(), []Job{{ID: "x", Run: func(ctx context.Context) (any, error) { return 7, nil }}},
		Options{Workers: -3})
	if rs[0].Value.(int) != 7 {
		t.Fatalf("default worker count broken: %v", rs[0])
	}
}
