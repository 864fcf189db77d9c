package campaign

import (
	"context"
	"encoding/json"
	"fmt"

	"xt910/internal/bench"
	"xt910/internal/cosim"
	"xt910/internal/inject"
	"xt910/internal/perf"
	"xt910/internal/sched"
)

// ItemResult is one finished work item: the JSON line it contributes to the
// merged report (no trailing newline) plus the divergence payload, when the
// item found one, for the report/repro queries and the corpus.
type ItemResult struct {
	Line json.RawMessage
	Div  *Divergence
}

// Divergence is the queryable record of one diverging item: the root-cause
// signature (cosim.Result.Signature), the full first-mismatch report and the
// minimized reproducer when the tool produced one.
type Divergence struct {
	Seed      int64  `json:"seed"`
	Signature string `json:"signature"`
	Kind      string `json:"kind"`
	Modes     string `json:"modes,omitempty"`
	Report    string `json:"report"`
	Shrunk    string `json:"shrunk,omitempty"`
}

// Runner executes one campaign work item. The production implementation is
// toolRunner; tests substitute gated or synthetic runners through
// Options.Runner.
type Runner interface {
	Run(ctx context.Context, spec *Spec, it Item) (ItemResult, error)
}

// toolRunner runs items in-process with the same code paths the CLIs use, so
// a campaign's merged fuzz report is byte-identical to `xtfuzz -json` over
// the same seed range.
type toolRunner struct{}

func (toolRunner) Run(ctx context.Context, spec *Spec, it Item) (ItemResult, error) {
	switch spec.Tool {
	case "fuzz":
		return runFuzzItem(ctx, spec, it)
	case "inject":
		return runInjectItem(ctx, spec, it)
	case "bench":
		return runBenchItem(ctx, spec, it)
	}
	return ItemResult{}, fmt.Errorf("campaign: unknown tool %q", spec.Tool)
}

func runFuzzItem(ctx context.Context, spec *Spec, it Item) (ItemResult, error) {
	opts, err := spec.fuzzOptions()
	if err != nil {
		return ItemResult{}, err
	}
	fr := cosim.FuzzWatched(ctx, it.Seed, spec.Segs, opts)
	if fr.Err != nil {
		return ItemResult{}, fr.Err
	}
	// A drain-cancelled run looks like a watchdog timeout; report the
	// cancellation instead of journaling a bogus "timeout" row — the item
	// reruns cleanly after restart.
	if fr.TimedOut && ctx.Err() != nil {
		return ItemResult{}, ctx.Err()
	}
	sched.AddCycles(ctx, fr.Result.Cycles)
	sched.AddInstrs(ctx, fr.Result.Commits)
	line, err := json.Marshal(cosim.NewSeedRecord(fr))
	if err != nil {
		return ItemResult{}, err
	}
	res := ItemResult{Line: line}
	if fr.Diverged {
		res.Div = &Divergence{
			Seed:      fr.Seed,
			Signature: fr.Result.Signature(),
			Kind:      fr.Result.Kind,
			Modes:     opts.Modes.String(),
			Report:    fr.Result.Report,
			Shrunk:    fr.Shrunk,
		}
	}
	return res, nil
}

// injectRecord is the merged-report row of one fault-injection seed: the
// seed's control-run verdict and every classified fault outcome.
type injectRecord struct {
	Seed            int64                `json:"seed"`
	ControlFailures []string             `json:"control_failures,omitempty"`
	Faults          []inject.FaultResult `json:"faults"`
}

func runInjectItem(ctx context.Context, spec *Spec, it Item) (ItemResult, error) {
	rep, err := inject.RunCampaign(ctx, inject.Options{
		Seeds:         []int64{it.Seed},
		FaultsPerSeed: spec.FaultsPerSeed,
		Segs:          spec.Segs,
		Jobs:          1, // one item = one seed; the shard pool provides the width
		Timeout:       spec.SeedTimeout(),
		MaxCycles:     spec.Cycles,
	})
	if err != nil {
		if ctx.Err() != nil {
			return ItemResult{}, ctx.Err()
		}
		return ItemResult{}, err
	}
	rec := injectRecord{Seed: it.Seed, ControlFailures: rep.ControlFailures, Faults: rep.Results}
	if rec.Faults == nil {
		rec.Faults = []inject.FaultResult{}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return ItemResult{}, err
	}
	return ItemResult{Line: line}, nil
}

// benchRecord is the merged-report row of one benchmark experiment. Wall
// times and the rows' host-speed fields are deliberately absent: every field
// derives from simulated state, so the row is deterministic.
type benchRecord struct {
	ID     string       `json:"id"`
	Result *perf.Result `json:"result"`
}

func runBenchItem(ctx context.Context, spec *Spec, it Item) (ItemResult, error) {
	e, ok := bench.Find(it.Exp)
	if !ok {
		return ItemResult{}, fmt.Errorf("campaign: unknown experiment %q", it.Exp)
	}
	o := bench.Options{Quick: spec.Quick, Jobs: 1, Timeout: spec.SeedTimeout()}
	r := bench.Run(ctx, o, []bench.Experiment{e})[0]
	if r.Err != nil {
		if ctx.Err() != nil {
			return ItemResult{}, ctx.Err()
		}
		return ItemResult{}, r.Err
	}
	res := r.Value.(*perf.Result)
	for i := range res.Rows {
		res.Rows[i].HostMIPS, res.Rows[i].SimCyclesPerSec = 0, 0
	}
	line, err := json.Marshal(benchRecord{ID: it.Exp, Result: res})
	if err != nil {
		return ItemResult{}, err
	}
	return ItemResult{Line: line}, nil
}
