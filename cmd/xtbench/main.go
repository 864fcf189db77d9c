// Command xtbench regenerates the paper's tables and figures (§X) on the
// XT-910 model and prints measured-vs-paper comparisons.
//
// Usage:
//
//	xtbench                  # run everything (paper order), one simulation
//	                         # in flight per CPU
//	xtbench -quick           # smoke mode (reduced iteration counts)
//	xtbench -jobs 1          # one simulation at a time, in paper order; the
//	                         # tables are byte-identical to -jobs N
//	xtbench -timeout 5m      # per-experiment deadline
//	xtbench -only fig21      # one experiment: table1 table2 fig17 fig18 fig19
//	                         # spec fig20 fig21 vector asid hugepage blockchain
//	                         # ablation density
//	xtbench -json            # machine-readable results + host metrics
//	xtbench -cpistack        # add a top-down CPI-stack line under each run row
//	xtbench -fidelity        # calibration sweep + paper-vs-measured error table
//	xtbench -fidelity -quick -json > FIDELITY_x.json   # record a fidelity doc
//	xtbench -fidelity -track # flag per-point error regressions vs the newest
//	                         # FIDELITY_*.json (exit 1 on regression)
//	xtbench -fidelity -track -baseline FIDELITY_PR9.json   # ...or a named one
//	xtbench -cpuprofile cpu.pb -only fig17   # host CPU profile of the run
//	                         # (go tool pprof); -memprofile for allocations
//
// Tables go to stdout; progress, host metrics and the invocation's sims_run /
// sims_reused counts (a JSON object under -json) go to stderr, so stdout is
// byte-stable across -jobs settings and safe to diff or redirect.
//
// Exit status: 0 on success, 1 when any experiment arm errors (the error goes
// to stderr as "xtbench: <err>" in both modes, and in -json mode into the
// experiment's record too), 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"xt910/internal/bench"
	"xt910/internal/calib"
	"xt910/internal/cliflags"
	"xt910/internal/perf"
	"xt910/internal/sched"
)

// jsonResult is the -json record for one experiment: the reproduced table
// plus the host-side metrics from the scheduler.
type jsonResult struct {
	ID           string       `json:"id"`
	Result       *perf.Result `json:"result,omitempty"`
	Error        string       `json:"error,omitempty"`
	WallSeconds  float64      `json:"wall_seconds"`
	SimCycles    uint64       `json:"sim_cycles"`
	CyclesPerSec float64      `json:"sim_cycles_per_sec"`
	// SimInstrs and HostMIPS track simulator throughput per experiment:
	// retired instructions across every run the experiment made, and the
	// host-MIPS rate they amount to over the experiment's wall time.
	SimInstrs uint64  `json:"sim_instrs,omitempty"`
	HostMIPS  float64 `json:"host_mips,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (rc int) {
	fs := flag.NewFlagSet("xtbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cf cliflags.Knobs
	cf.RegisterPool(fs)
	jsonOut := cliflags.RegisterJSON(fs)
	cf.RegisterTimeout(fs, 0, "per-experiment deadline (0 = none)")
	quick := fs.Bool("quick", false, "reduced iteration counts")
	only := fs.String("only", "", "run a single experiment by id")
	cpistack := fs.Bool("cpistack", false, "attach a pipeline tracer to each run and report its top-down CPI stack")
	track := fs.Bool("track", false, "with -fidelity: gate the error table against a baseline -fidelity -json document")
	baseline := fs.String("baseline", "", "baseline file for -track (default: the newest FIDELITY_*.json in the current directory)")
	fidelity := fs.Bool("fidelity", false, "run the calibration sweep and print the paper-vs-measured fidelity table instead of the experiments")
	seed := fs.Int64("seed", 1, "calibration sweep seed (with -fidelity)")
	prof := cliflags.RegisterProfile(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *track && !*fidelity {
		fmt.Fprintln(stderr, "xtbench: -track only applies with -fidelity (host speed is measured by ./benchmark)")
		return 2
	}
	if *fidelity && *only != "" {
		fmt.Fprintln(stderr, "xtbench: -fidelity runs the calibration sweep, not an experiment (drop -only)")
		return 2
	}
	if *baseline != "" && !*track {
		fmt.Fprintln(stderr, "xtbench: -baseline only applies with -track")
		return 2
	}
	exps := bench.Experiments()
	if *only != "" {
		e, ok := bench.Find(*only)
		if !ok {
			var ids []string
			for _, x := range bench.Experiments() {
				ids = append(ids, x.ID)
			}
			fmt.Fprintf(stderr, "xtbench: unknown experiment %q (have: %s)\n",
				*only, strings.Join(ids, " "))
			return 2
		}
		exps = []bench.Experiment{e}
	}
	trackPath := *baseline
	if *track && trackPath == "" {
		var err error
		if trackPath, err = resolveBaseline("."); err != nil {
			fmt.Fprintf(stderr, "xtbench: track: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "xtbench: track baseline %s\n", trackPath)
	}
	stopProfile, err := cliflags.StartProfile(prof)
	if err != nil {
		fmt.Fprintf(stderr, "xtbench: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintf(stderr, "xtbench: %v\n", err)
			rc = 1
		}
	}()

	// one run scope for the invocation, opened here so its counters can be
	// reported when the work is done
	ctx, scope := bench.Scoped(context.Background(), cf.Jobs)
	defer func() {
		run, reused := scope.Sims()
		if *jsonOut {
			fmt.Fprintf(stderr, "{\"sims_run\": %d, \"sims_reused\": %d}\n", run, reused)
		} else {
			fmt.Fprintf(stderr, "xtbench: sims_run %d  sims_reused %d\n", run, reused)
		}
	}()

	if *fidelity {
		if cf.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, cf.Timeout)
			defer cancel()
		}
		r, err := calib.Run(ctx, calib.Options{Quick: *quick, Jobs: cf.Jobs, Seed: *seed})
		if err != nil {
			fmt.Fprintf(stderr, "xtbench: fidelity: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "xtbench: fidelity evals %d\n", r.Evals)
		rc := 0
		if *track {
			if err := fidelityTrack(stderr, trackPath, r); err != nil {
				fmt.Fprintf(stderr, "xtbench: fidelity track: %v\n", err)
				rc = 1
			}
		}
		if *jsonOut {
			if jrc := emitJSON(stdout, stderr, r); jrc != 0 {
				return jrc
			}
			return rc
		}
		fmt.Fprint(stdout, r.Format())
		return rc
	}

	o := bench.Options{Quick: *quick, Jobs: cf.Jobs, Timeout: cf.Timeout, CPIStack: *cpistack}
	if !*jsonOut {
		o.OnProgress = func(r sched.Result) {
			status := "ok"
			if r.Err != nil {
				status = "FAIL"
			}
			fmt.Fprintf(stderr, "xtbench: %-10s %-4s %8.2fs  %12d cycles  %8.2f Mcyc/s  %6.2f MIPS\n",
				r.ID, status, r.Wall.Seconds(), r.Cycles, r.CyclesPerSec()/1e6, r.MIPS())
		}
	}

	rs := bench.Run(ctx, o, exps)
	out := make([]jsonResult, len(rs))
	for i, r := range rs {
		out[i] = jsonResult{
			ID:           r.ID,
			WallSeconds:  r.Wall.Seconds(),
			SimCycles:    r.Cycles,
			CyclesPerSec: r.CyclesPerSec(),
			SimInstrs:    r.Instrs,
			HostMIPS:     r.MIPS(),
		}
		if r.Err != nil {
			out[i].Error = r.Err.Error()
			fmt.Fprintf(stderr, "xtbench: %v\n", r.Err)
		} else {
			out[i].Result = r.Value.(*perf.Result)
		}
	}
	if *jsonOut {
		if rc := emitJSON(stdout, stderr, out); rc != 0 {
			return rc
		}
	} else {
		for _, r := range out {
			if r.Result != nil {
				fmt.Fprint(stdout, r.Result.Format())
				fmt.Fprintln(stdout)
			}
		}
	}
	if sched.FirstError(rs) != nil {
		return 1
	}
	return 0
}

// baselinePattern names the checked-in per-PR fidelity records.
const baselinePattern = "FIDELITY_*.json"

// resolveBaseline picks the -track baseline when the user gave no -baseline:
// the newest (by mtime) baselinePattern match in dir. Equal mtimes — common
// after a `git checkout`, which stamps every file with the same time — break
// toward the lexicographically greatest name, so FIDELITY_PR9.json beats
// FIDELITY_PR7.json deterministically instead of depending on directory
// order. No match is a plain error, not a panic — a fresh checkout simply has
// nothing to track against yet.
func resolveBaseline(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, baselinePattern))
	if err != nil {
		return "", err
	}
	best, bestTime := "", time.Time{}
	for _, m := range matches {
		fi, err := os.Stat(m)
		if err != nil || fi.IsDir() {
			continue
		}
		mt := fi.ModTime()
		if best == "" || mt.After(bestTime) || (mt.Equal(bestTime) && m > best) {
			best, bestTime = m, mt
		}
	}
	if best == "" {
		return "", fmt.Errorf("no %s baseline in %s (record one with `xtbench -fidelity -json`, or point -baseline at a file)", baselinePattern, dir)
	}
	return best, nil
}

// fidelityErrTolerance absorbs knob-grid jitter when comparing per-point
// shape errors against a baseline fidelity document: a point regresses only
// when its calibrated |ln m/p| error grows by more than this.
const fidelityErrTolerance = 0.02

// fidelityTrack compares this sweep's error table against a prior
// FIDELITY_*.json. Schema drift, an unreadable baseline, or a baseline point
// the current sweep no longer measures are hard errors; so is any point
// whose calibrated error grew past the tolerance — simulation is
// deterministic, so this is a gate.
func fidelityTrack(stderr io.Writer, path string, cur *calib.Result) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base calib.Result
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if base.Schema != calib.Schema {
		return fmt.Errorf("%s: schema %q, want %q", path, base.Schema, calib.Schema)
	}
	curPoints := make(map[string]calib.PointReport, len(cur.Points))
	for _, p := range cur.Points {
		curPoints[p.ID] = p
	}
	var regressed []string
	for _, b := range base.Points {
		c, ok := curPoints[b.ID]
		if !ok {
			return fmt.Errorf("%s: point %s has no measurement in this sweep", path, b.ID)
		}
		delta := c.ErrCal - b.ErrCal
		status := "ok"
		if delta > fidelityErrTolerance {
			status = "REGRESSED"
			regressed = append(regressed, b.ID)
		}
		fmt.Fprintf(stderr, "xtbench: fidelity %-22s err %.4f  baseline %.4f  (%+.4f) %s\n",
			b.ID, c.ErrCal, b.ErrCal, delta, status)
	}
	for _, p := range cur.Points {
		found := false
		for _, b := range base.Points {
			if b.ID == p.ID {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(stderr, "xtbench: fidelity %-22s err %.4f  (no baseline)\n", p.ID, p.ErrCal)
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("calibrated error regressed past %.2f on: %s",
			fidelityErrTolerance, strings.Join(regressed, " "))
	}
	return nil
}

func emitJSON(stdout, stderr io.Writer, v any) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(stderr, "xtbench: %v\n", err)
		return 1
	}
	return 0
}
