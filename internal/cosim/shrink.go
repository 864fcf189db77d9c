package cosim

import (
	"context"
	"fmt"
	"time"

	"xt910/internal/sched"
)

// shrink minimizes a diverging program with greedy delta-debugging over its
// segments: repeatedly try dropping chunks (halving the chunk size down to
// single segments) and keep any removal that still diverges. The result is
// deterministic for a given program and the run budget bounds worst-case
// shrink cost on pathological inputs.
func shrink(p *program, opts Options) string {
	mask := make([]bool, len(p.segs))
	for i := range mask {
		mask[i] = true
	}
	diverges := func(m []bool) bool {
		prog, err := p.build(m)
		return err == nil && Run(prog, opts).Diverged
	}
	budget := 300
	for improved := true; improved && budget > 0; {
		improved = false
		for chunk := len(p.segs) / 2; chunk >= 1 && budget > 0; chunk /= 2 {
			for start := 0; start < len(p.segs) && budget > 0; start += chunk {
				changed := false
				trial := append([]bool(nil), mask...)
				for i := start; i < start+chunk && i < len(trial); i++ {
					if trial[i] {
						trial[i] = false
						changed = true
					}
				}
				if !changed {
					continue
				}
				budget--
				if diverges(trial) {
					mask = trial
					improved = true
				}
			}
		}
	}
	return p.render(mask)
}

// RunSeeds fuzzes each seed on the worker pool (one job per seed) and
// returns results in seed order — byte-identical at any jobs width.
//
// When opts.SeedTimeout is set, each seed runs under a per-run watchdog: a
// seed that blows the deadline is retried once at twice the budget, and a
// second timeout yields a FuzzResult with TimedOut set rather than an error —
// a hung seed is a finding to report, not a reason to stall the campaign.
func RunSeeds(ctx context.Context, seeds []int64, nSegs int, opts Options, jobs int) ([]FuzzResult, error) {
	jl := make([]sched.Job, len(seeds))
	for i, seed := range seeds {
		seed := seed
		jl[i] = sched.Job{
			ID: fmt.Sprintf("seed%d", seed),
			Run: func(ctx context.Context) (any, error) {
				fr := FuzzWatched(ctx, seed, nSegs, opts)
				sched.AddCycles(ctx, fr.Result.Cycles)
				sched.AddInstrs(ctx, fr.Result.Commits)
				return fr, fr.Err
			},
		}
	}
	rs := sched.Run(ctx, jl, sched.Options{Workers: jobs})
	out := make([]FuzzResult, len(rs))
	for i, r := range rs {
		if r.Err != nil {
			return nil, r.Err
		}
		out[i] = r.Value.(FuzzResult)
	}
	return out, nil
}

// FuzzWatched fuzzes one seed under the per-seed deadline policy of RunSeeds:
// opts.SeedTimeout bounds the run, one 2× retry on timeout, and a second
// timeout is reported in the FuzzResult rather than as an error. It is the
// single-seed unit that campaign shards schedule themselves.
func FuzzWatched(ctx context.Context, seed int64, nSegs int, opts Options) FuzzResult {
	if opts.SeedTimeout <= 0 {
		return FuzzContext(ctx, seed, nSegs, opts)
	}
	run := func(budget time.Duration) FuzzResult {
		sctx, cancel := context.WithTimeout(ctx, budget)
		defer cancel()
		return FuzzContext(sctx, seed, nSegs, opts)
	}
	fr := run(opts.SeedTimeout)
	if !fr.TimedOut || ctx.Err() != nil {
		return fr
	}
	fr = run(2 * opts.SeedTimeout)
	fr.Retried = true
	return fr
}
