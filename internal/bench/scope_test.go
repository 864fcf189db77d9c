package bench

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"xt910/internal/core"
	"xt910/internal/mem"
	"xt910/internal/perf"
	"xt910/internal/sched"
	"xt910/internal/soc"
	"xt910/internal/workloads"
)

// testExperiments is the registry RunAll runs, cut down under the race
// detector (twenty times slower here) to the cheap experiments that still
// ask for CoreMark on the stock XT-910 more than once.
func testExperiments() []Experiment {
	if !raceDetector {
		return Experiments()
	}
	var out []Experiment
	for _, id := range []string{"table1", "fig17", "fig20", "vector", "asid", "blockchain", "density"} {
		e, _ := Find(id)
		out = append(out, e)
	}
	return out
}

// quickRun is one whole evaluation at Quick size and what its scope counted.
type quickRun struct {
	rs              []sched.Result
	tables          []string
	sims, reused    int
	keys, peak      int
	coremarkOnXT910 bool
}

func runAllQuick(jobs int, uncached bool) (quickRun, error) {
	sc := newScope(jobs)
	sc.uncached = uncached
	ctx, _ := sc.enter(context.Background(), 0, 0)
	q := quickRun{rs: Run(ctx, Options{Quick: true, Jobs: jobs}, testExperiments())}
	for _, r := range q.rs {
		if r.Err != nil {
			return q, r.Err
		}
		q.tables = append(q.tables, r.Value.(*perf.Result).Format())
	}
	q.sims, q.reused = sc.Sims()
	q.keys, q.peak = len(sc.runs), sc.gate.peak
	o := Options{Quick: true}
	p, err := workloads.CoreMark.Program(o.iters(workloads.CoreMark), true)
	if err != nil {
		return q, err
	}
	key, _ := keyOf(o, p, soc.DefaultConfig(), nil)
	q.coremarkOnXT910 = sc.runs[key] != nil
	return q, nil
}

// quickRuns runs the evaluation once with the cache bypassed and once per
// scope width, for the tests below to share.
var quickRuns = sync.OnceValues(func() (map[int]quickRun, error) {
	out := make(map[int]quickRun)
	for _, jobs := range []int{0, 1, 2, 4} { // 0: bypassed, Jobs 2
		var err error
		if jobs == 0 {
			out[0], err = runAllQuick(2, true)
		} else {
			out[jobs], err = runAllQuick(jobs, false)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
})

func sharedQuickRuns(t *testing.T) map[int]quickRun {
	t.Helper()
	if testing.Short() {
		t.Skip("four whole evaluations")
	}
	runs, err := quickRuns()
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// TestRunAllSimulatesEachRunOnce: at every width the scope executes exactly
// one simulation per distinct key, and sharing changes nothing a caller can
// see — tables and per-experiment simulated volume equal the bypassed run's.
func TestRunAllSimulatesEachRunOnce(t *testing.T) {
	runs := sharedQuickRuns(t)
	bypassed := runs[0]
	if bypassed.reused != 0 || bypassed.keys != 0 {
		t.Fatalf("bypassed run shared something: %+v", bypassed)
	}
	for _, jobs := range []int{1, 2, 4} {
		q := runs[jobs]
		if q.sims != q.keys {
			t.Errorf("jobs=%d: %d simulations for %d distinct runs", jobs, q.sims, q.keys)
		}
		if !q.coremarkOnXT910 {
			t.Errorf("jobs=%d: CoreMark on the stock XT-910 is not among the shared runs", jobs)
		}
		if q.sims+q.reused != bypassed.sims {
			t.Errorf("jobs=%d: %d run + %d reused, but %d requests when bypassed", jobs, q.sims, q.reused, bypassed.sims)
		}
		if q.reused == 0 {
			t.Errorf("jobs=%d: nothing was reused", jobs)
		}
		for i, r := range q.rs {
			if q.tables[i] != bypassed.tables[i] {
				t.Errorf("jobs=%d: %s differs from the bypassed run:\n%s\n---\n%s", jobs, r.ID, q.tables[i], bypassed.tables[i])
			}
			if b := bypassed.rs[i]; r.Cycles != b.Cycles || r.Instrs != b.Instrs {
				t.Errorf("jobs=%d: %s credited %d cycles / %d instrs, bypassed %d / %d",
					jobs, r.ID, r.Cycles, r.Instrs, b.Cycles, b.Instrs)
			}
		}
	}
}

// TestJobsBoundsSimulations: Jobs is the most simulations ever in flight,
// across every experiment and arm.
func TestJobsBoundsSimulations(t *testing.T) {
	for jobs, q := range sharedQuickRuns(t) {
		if jobs == 0 {
			jobs = 2
		}
		if q.peak < 1 || q.peak > jobs {
			t.Errorf("jobs=%d: %d simulations were in flight at once", jobs, q.peak)
		}
	}
}

// TestScopeIsPerInvocation: nothing carries over from one RunAll to the
// next, so consecutive invocations do the same work.
func TestScopeIsPerInvocation(t *testing.T) {
	runs := sharedQuickRuns(t)
	if a, b, c := runs[1].sims, runs[2].sims, runs[4].sims; a == 0 || a != b || b != c {
		t.Fatalf("consecutive invocations executed %d, %d and %d simulations", a, b, c)
	}
}

// TestSetupIsPartOfTheKey: runs that differ only in their paged set-up, or
// only in a configuration field, are different runs.
func TestSetupIsPartOfTheKey(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("memory-bound sweeps; the key is plain logic the race detector adds nothing to")
	}
	ctx, sc := Scoped(context.Background(), 2)
	o := Options{Quick: true, Jobs: 2}
	r, err := HugePages(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if small, big := r.Rows[0].Measured, r.Rows[1].Measured; small <= big {
		t.Fatalf("4KB pages walked %v times, 2MB pages %v: the set-up did not reach the run", small, big)
	}
	if _, err := Fig21(ctx, o); err != nil {
		t.Fatal(err)
	}
	if run, reused := sc.Sims(); run != 7 || reused != 0 {
		t.Fatalf("2 hugepage arms and 5 fig21 scenarios: %d simulated, %d reused; want 7 and 0", run, reused)
	}
}

// TestAskersShareOneSimulation: concurrent askers of one run wait for the
// first, and each is credited the run's whole simulated volume.
func TestAskersShareOneSimulation(t *testing.T) {
	o := Options{Quick: true}
	p, err := workloads.BlockchainExt.Program(o.iters(workloads.BlockchainExt), true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, sc := Scoped(context.Background(), 3)
	jobs := make([]sched.Job, 8)
	for i := range jobs {
		jobs[i] = sched.Job{ID: "asker", Run: func(ctx context.Context) (any, error) {
			return runProgram(ctx, o, p, soc.DefaultConfig(), nil)
		}}
	}
	rs := sched.Run(ctx, jobs, sched.Options{Workers: len(jobs)})
	if err := sched.FirstError(rs); err != nil {
		t.Fatal(err)
	}
	first := rs[0].Value.(runResult)
	for _, r := range rs {
		if got := r.Value.(runResult); got != first {
			t.Errorf("askers disagree: %+v vs %+v", got, first)
		}
		if r.Cycles != first.Cycles || r.Instrs != first.Retired {
			t.Errorf("asker credited %d cycles / %d instrs, the run took %d / %d", r.Cycles, r.Instrs, first.Cycles, first.Retired)
		}
	}
	if run, reused := sc.Sims(); run != 1 || reused != 7 {
		t.Fatalf("%d simulated, %d reused; want 1 and 7", run, reused)
	}

	// a caller's own set-up has no identity: never shared
	own := setupFunc(func(*core.Core, *mem.Memory) {})
	for i := 0; i < 2; i++ {
		if _, err := runProgram(ctx, o, p, soc.DefaultConfig(), own); err != nil {
			t.Fatal(err)
		}
	}
	if run, reused := sc.Sims(); run != 3 || reused != 7 {
		t.Fatalf("after two runs with a caller's set-up: %d simulated, %d reused; want 3 and 7", run, reused)
	}
}

// TestCancelledOwnerIsNotInherited: an asker waiting for a run whose owner
// is cancelled simulates for itself under its own context; the failed run is
// not kept.
func TestCancelledOwnerIsNotInherited(t *testing.T) {
	o := Options{}
	p, err := workloads.CoreMark.Program(workloads.CoreMark.DefaultIters/2, true) // several ctx polls long
	if err != nil {
		t.Fatal(err)
	}
	ctx, sc := Scoped(context.Background(), 2)
	ask := func(ctx context.Context) (runResult, error) {
		return runProgram(ctx, o, p, soc.DefaultConfig(), nil)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	slotsTaken := func() int {
		sc.gate.mu.Lock()
		defer sc.gate.mu.Unlock()
		return sc.gate.peak
	}

	ownerCtx, cancelOwner := context.WithCancel(ctx)
	defer cancelOwner()
	ownerErr := make(chan error, 1)
	go func() {
		_, err := ask(ownerCtx)
		ownerErr <- err
	}()
	waitFor("the owner's slot", func() bool { return slotsTaken() == 1 })

	type outcome struct {
		r   runResult
		err error
	}
	waiter := make(chan outcome, 1)
	go func() {
		r, err := ask(ctx)
		waiter <- outcome{r, err}
	}()
	waitFor("the waiter to reach the gate", func() bool { return slotsTaken() == 2 })
	cancelOwner()

	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner: want context.Canceled, got %v", err)
	}
	w := <-waiter
	if w.err != nil {
		t.Fatalf("waiter inherited the owner's fate: %v", w.err)
	}
	if !(w.r.Cycles > 0 && w.r.Retired > 0) {
		t.Fatalf("waiter got an empty result: %+v", w.r)
	}
	if run, reused := sc.Sims(); run != 2 || reused != 0 {
		t.Fatalf("%d simulated, %d reused; want 2 and 0", run, reused)
	}
}

// TestRunAllCancelled: an evaluation whose context has already ended
// reports that for every experiment instead of waiting on any of them.
func TestRunAllCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range RunAll(ctx, Options{Quick: true, Jobs: 2}) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got %v", r.ID, r.Err)
		}
	}
}

// TestQueueingIsNotChargedToTheDeadline: with one slot, an experiment that
// waits for its first slot longer than Options.Timeout still gets its whole
// budget once it runs, and its Wall is its own running time.
func TestQueueingIsNotChargedToTheDeadline(t *testing.T) {
	const hold, budget = 600 * time.Millisecond, 500 * time.Millisecond
	o := Options{Quick: true, Jobs: 1, Timeout: budget}
	p, err := workloads.BlockchainExt.Program(o.iters(workloads.BlockchainExt), true)
	if err != nil {
		t.Fatal(err)
	}
	experiment := func(id string, su setup) Experiment {
		return Experiment{ID: id, Fn: func(ctx context.Context, o Options) (*perf.Result, error) {
			_, err := runJobs(ctx, o, []string{id + "/arm"}, []func(context.Context) (runResult, error){
				func(ctx context.Context) (runResult, error) {
					return runProgram(ctx, o, p, soc.DefaultConfig(), su)
				},
			})
			return &perf.Result{ID: id}, err
		}}
	}
	rs := Run(context.Background(), o, []Experiment{
		experiment("hog", setupFunc(func(*core.Core, *mem.Memory) { time.Sleep(hold) })),
		experiment("queued", nil),
	})
	hog, queued := rs[0], rs[1]
	if !errors.Is(hog.Err, context.DeadlineExceeded) {
		t.Errorf("hog held its slot past the deadline: want DeadlineExceeded, got %v", hog.Err)
	}
	if queued.Err != nil {
		t.Fatalf("queued experiment was charged for waiting: %v", queued.Err)
	}
	if queued.Wall >= hold {
		t.Errorf("queued experiment reports %v of wall time, %v of it spent waiting", queued.Wall, hold)
	}
}
