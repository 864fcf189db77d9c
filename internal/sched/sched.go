// Package sched is the experiment engine behind the paper-reproduction
// harness: a deterministic bounded worker pool that runs independent
// simulator instances (each experiment, each core-config arm, each ablation)
// concurrently across GOMAXPROCS goroutines.
//
// Determinism contract: results are returned in job-submission order and
// every job builds its own simulator state, so the output of a run is
// byte-identical whatever the worker count — `-jobs 1` and `-jobs N` produce
// the same tables, only the wall clock differs. A panicking simulation is
// converted into a structured *JobError carrying a *PanicError instead of
// killing the process, and every job gets its own context.Context with
// optional deadline for cancellation.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Job is one unit of work: an independent simulation executed on its own
// worker goroutine.
type Job struct {
	// ID names the job in results, errors and the progress stream.
	ID string
	// Run performs the work. The context carries the job's cancellation,
	// deadline and metrics accounting; simulations report progress through
	// AddCycles(ctx, n).
	Run func(ctx context.Context) (any, error)
}

// Result is the outcome of one job together with its host-side metrics.
type Result struct {
	ID    string
	Value any
	Err   error
	// Wall is the host wall-clock time the job took.
	Wall time.Duration
	// Cycles is the number of simulated cycles the job reported through
	// AddCycles — the sim-side progress measure.
	Cycles uint64
	// Instrs is the number of retired instructions the job reported through
	// AddInstrs — the numerator of the host-MIPS throughput measure.
	Instrs uint64
}

// CyclesPerSec returns the simulation rate: simulated cycles per host second.
func (r Result) CyclesPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Cycles) / r.Wall.Seconds()
}

// MIPS returns the simulation throughput in millions of retired instructions
// per host second — the conventional figure of merit for simulator speed.
func (r Result) MIPS() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Instrs) / r.Wall.Seconds() / 1e6
}

// JobError attributes a failure to a job; Unwrap exposes the cause so
// errors.Is/As see through it.
type JobError struct {
	ID  string
	Err error
}

func (e *JobError) Error() string { return e.ID + ": " + e.Err.Error() }
func (e *JobError) Unwrap() error { return e.Err }

// PanicError is a recovered panic from a crashed simulation, converted into
// an ordinary error so one bad experiment cannot kill the whole run.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("simulation panicked: %v", e.Value) }

// Options tunes a pool run.
type Options struct {
	// Workers bounds concurrency; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// Timeout, when positive, bounds each job's wall time.
	Timeout time.Duration
	// OnDone, when set, receives each Result as its job completes
	// (completion order, serialized — safe to write to a terminal).
	OnDone func(Result)

	// OnResult, when set, receives each Result together with its job index as
	// it completes. Like OnDone it fires in completion order and is
	// serialized, but the index ties the result back to its submission slot,
	// which is what incremental consumers (checkpointing a long campaign
	// result by result instead of waiting for pool drain) need. The batch
	// return of Run is unaffected: results are still merged deterministically
	// in job-submission order, byte-identical at any worker count.
	OnResult func(index int, r Result)
}

// ctxKey keys the per-job metrics slot carried by the job context.
type ctxKey int

const (
	cyclesKey ctxKey = iota
	instrsKey
)

// AddCycles credits n simulated cycles to the job owning ctx. It is a no-op
// on contexts that did not come from Run, so harness code can call it
// unconditionally.
func AddCycles(ctx context.Context, n uint64) {
	if c, ok := ctx.Value(cyclesKey).(*atomic.Uint64); ok {
		c.Add(n)
	}
}

// AddInstrs credits n retired instructions to the job owning ctx (same
// contract as AddCycles).
func AddInstrs(ctx context.Context, n uint64) {
	if c, ok := ctx.Value(instrsKey).(*atomic.Uint64); ok {
		c.Add(n)
	}
}

// Run executes jobs on a bounded worker pool and returns one Result per job,
// in job order regardless of completion order. It never returns an error
// itself: per-job failures (including recovered panics and cancellation) are
// recorded in the corresponding Result.Err as a *JobError.
func Run(ctx context.Context, jobs []Job, o Options) []Result {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}

	idx := make(chan int)
	var done sync.Mutex // serializes OnDone/OnResult
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				r := runJob(ctx, jobs[i], o.Timeout)
				results[i] = r
				if o.OnDone != nil || o.OnResult != nil {
					done.Lock()
					if o.OnDone != nil {
						o.OnDone(r)
					}
					if o.OnResult != nil {
						o.OnResult(i, r)
					}
					done.Unlock()
				}
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// runJob executes one job with panic recovery, deadline and metrics.
func runJob(ctx context.Context, j Job, timeout time.Duration) Result {
	res := Result{ID: j.ID}
	if err := ctx.Err(); err != nil {
		// the whole run was cancelled before this job started
		res.Err = &JobError{ID: j.ID, Err: err}
		return res
	}
	var cycles, instrs atomic.Uint64
	jctx := context.WithValue(ctx, cyclesKey, &cycles)
	jctx = context.WithValue(jctx, instrsKey, &instrs)
	if timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(jctx, timeout)
		defer cancel()
	}
	start := time.Now()
	func() {
		defer func() {
			if v := recover(); v != nil {
				res.Err = &JobError{ID: j.ID, Err: &PanicError{Value: v, Stack: debug.Stack()}}
			}
		}()
		v, err := j.Run(jctx)
		res.Value = v
		if err != nil {
			res.Err = &JobError{ID: j.ID, Err: err}
		}
	}()
	res.Wall = time.Since(start)
	res.Cycles = cycles.Load()
	res.Instrs = instrs.Load()
	// nested pools: credit this job's cycles to any enclosing job so the
	// outer metrics stream sees the whole simulation volume
	AddCycles(ctx, res.Cycles)
	AddInstrs(ctx, res.Instrs)
	return res
}

// FirstError returns the first failed result in job order (matching what a
// serial run would have reported), or nil if every job succeeded.
func FirstError(rs []Result) error {
	for _, r := range rs {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
