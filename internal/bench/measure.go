package bench

import (
	"context"
	"fmt"

	"xt910/internal/core"
	"xt910/internal/workloads"
	"xt910/internal/xterrors"
)

// MeasureRun is one calibration measurement: the cycle and retirement counts
// of a workload on a core configuration. Simulation is deterministic, so two
// MeasureWorkload calls with the same inputs return identical counts on any
// host at any concurrency.
type MeasureRun struct {
	Cycles  uint64
	Retired uint64
	Exit    int
}

// IPC is retired instructions per cycle.
func (r MeasureRun) IPC() float64 { return float64(r.Retired) / float64(r.Cycles) }

// Workloads is the whole suite: workloads.All() plus the
// dedicated-configuration workloads (STREAM, SPEC-like) it omits.
func Workloads() []workloads.Workload {
	return append(workloads.All(), workloads.Stream, workloads.SpecLike)
}

// FindWorkload resolves a kernel of Workloads by name.
func FindWorkload(name string) (workloads.Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workloads.Workload{}, false
}

// MeasureWorkload assembles and runs one named kernel for iters iterations
// (iters <= 0 selects the workload's default, scaled down by o.Quick) on
// Machine(cfg) with its L2 hit latency set to l2Hit (0: the stock one, the
// environment the figure experiments run in) — the calibration harness's
// measurement primitive. The run is credited to the enclosing sched job like
// every other harness run.
func MeasureWorkload(ctx context.Context, o Options, name string, iters int, cfg core.Config, l2Hit int) (MeasureRun, error) {
	w, ok := FindWorkload(name)
	if !ok {
		return MeasureRun{}, fmt.Errorf("bench: %w: workload %q", xterrors.ErrUnknownWorkload, name)
	}
	if iters <= 0 {
		iters = o.iters(w)
	}
	m := Machine(cfg)
	m.L2HitLatency = l2Hit
	r, err := runWorkload(ctx, o, w, iters, m)
	if err != nil {
		return MeasureRun{}, err
	}
	return MeasureRun{Cycles: r.Cycles, Retired: r.Retired, Exit: r.Exit}, nil
}
