// Command xtfuzz hunts for divergences between the XT-910 out-of-order
// timing core (internal/core) and the golden reference emulator
// (internal/emu) by running seeded random programs under the lock-step
// checker in internal/cosim.
//
// Usage:
//
//	xtfuzz                     # seeds 1..100, 40 segments each
//	xtfuzz -n 1000 -seed 17    # seeds 17..1016
//	xtfuzz -segs 150           # longer programs
//	xtfuzz -jobs 1             # serial; results identical at any width
//	xtfuzz -cycles 1000000     # per-program cycle budget
//	xtfuzz -modes paged        # S-mode under SV39 (identity + alias window)
//	xtfuzz -modes irq          # interrupt injection (WFI, MIE toggles,
//	                           # per-seed deterministic mip schedules)
//	xtfuzz -modes smp          # SPMD multi-hart with cross-hart contention
//	                           # segments and the store-order oracle
//	xtfuzz -modes smp,irq      # combinable when legal (paged excludes both)
//	xtfuzz -harts 4            # hart pairs for smp (default 2; 1, 2 or 4)
//	xtfuzz -timeout 30s        # per-seed watchdog (timeout ≠ failure)
//	xtfuzz -json               # one JSON record per seed on stdout
//	xtfuzz -repro case.s       # re-run one (shrunk) program under the checker
//	xtfuzz -cpuprofile cpu.pb  # host CPU profile of the run (go tool pprof);
//	                           # -memprofile likewise for allocations
//	xtfuzz -modes paged -repro c.s  # ...under the paged profile
//
// Every divergence prints the first-mismatch report, a windowed commit
// trace, and a minimized reproducer program. A watchdog-killed seed is
// reported as status "timeout" and does NOT fail the run. The last stderr
// line counts the hart-cycles stepped and those the session clock jumped
// (cycles_stepped N cycles_elided M); -json records never carry them. Exit status: 0
// when all seeds agree, 1 on any divergence or run error, 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"xt910/internal/asm"
	"xt910/internal/cliflags"
	"xt910/internal/core"
	"xt910/internal/cosim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (rc int) {
	fs := flag.NewFlagSet("xtfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cf cliflags.Knobs
	cf.RegisterSeeds(fs, 100)
	cf.RegisterPool(fs)
	jsonOut := cliflags.RegisterJSON(fs)
	cf.RegisterTimeout(fs, 0,
		"per-seed wall-clock watchdog (0 = none; timed-out seeds retry once at 2x)")
	cf.RegisterModes(fs)
	prof := cliflags.RegisterProfile(fs)
	segs := fs.Int("segs", 0, "segments per program (0 = default)")
	cycles := fs.Uint64("cycles", 0, "per-program cycle budget (0 = default)")
	harts := fs.Int("harts", 0, "hart pairs for -modes smp: 1, 2 or 4 (0 = default 2)")
	repro := fs.String("repro", "", "run one assembly file under the checker instead of fuzzing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	modes, err := cf.CosimModes()
	if err != nil {
		fmt.Fprintf(stderr, "xtfuzz: %v\n", err)
		return 2
	}
	opts := cosim.Options{MaxCycles: *cycles, Modes: modes, Harts: *harts, SeedTimeout: cf.Timeout}
	// the -modes spec alone can be legal while -harts smuggles SMP into an
	// illegal combination (e.g. -modes paged -harts 2): validate the resolved
	// Options, not just the parsed spec
	if err := opts.Validate(); err != nil {
		fmt.Fprintf(stderr, "xtfuzz: %v\n", err)
		return 2
	}
	stopProfile, err := cliflags.StartProfile(prof)
	if err != nil {
		fmt.Fprintf(stderr, "xtfuzz: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintf(stderr, "xtfuzz: %v\n", err)
			rc = 1
		}
	}()

	if *repro != "" {
		src, err := os.ReadFile(*repro)
		if err != nil {
			fmt.Fprintf(stderr, "xtfuzz: %v\n", err)
			return 2
		}
		prog, err := asm.Assemble(string(src), asm.Options{Base: 0x1000, Compress: true})
		if err != nil {
			fmt.Fprintf(stderr, "xtfuzz: %s: %v\n", *repro, err)
			return 2
		}
		r := cosim.Run(prog, opts)
		if r.Diverged {
			fmt.Fprintln(stdout, r.Report)
			return 1
		}
		fmt.Fprintf(stdout, "xtfuzz: %s: no divergence (%d commits, %d cycles, exit %d)\n",
			*repro, r.Commits, r.Cycles, r.ExitCode)
		return 0
	}

	start := time.Now()
	frs, err := cosim.RunSeeds(context.Background(), cf.Seeds(), *segs, opts, cf.Jobs)
	if err != nil {
		fmt.Fprintf(stderr, "xtfuzz: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	var diverged, timedOut int
	var commits, cycles2, hartCycles uint64
	var ff core.FFStats
	for _, fr := range frs {
		commits += fr.Result.Commits
		cycles2 += fr.Result.Cycles
		hartCycles += fr.Clock.Cycles
		ff.Add(fr.Clock.FF)
		if *jsonOut {
			// cosim.SeedRecord is the shared row format: the campaign
			// service emits the same struct, keeping sharded merged reports
			// byte-identical to this output.
			if err := enc.Encode(cosim.NewSeedRecord(fr)); err != nil {
				fmt.Fprintf(stderr, "xtfuzz: %v\n", err)
				return 1
			}
		}
		if fr.TimedOut {
			timedOut++
			continue
		}
		if !fr.Diverged {
			continue
		}
		diverged++
		if !*jsonOut {
			fmt.Fprintf(stdout, "=== seed %d ===\n%s\n--- minimized reproducer (run with -repro) ---\n%s\n",
				fr.Seed, fr.Result.Report, fr.Shrunk)
		}
	}
	wall := time.Since(start)
	fmt.Fprintf(stderr, "xtfuzz: %d seeds  %d diverged  %d timeout  %d commits  %.2f Mcyc/s  %.2fs\n",
		len(frs), diverged, timedOut, commits, float64(cycles2)/1e6/wall.Seconds(), wall.Seconds())
	// the event-driven clock's host-side counters, in hart-cycles; never in -json
	fmt.Fprintf(stderr, "xtfuzz: cycles_stepped %d cycles_elided %d (windows %d backend %d frontend %d irq-armed %d)\n",
		hartCycles-ff.Elided(), ff.Elided(), ff.Windows, ff.Backend, ff.Frontend, ff.Armed)
	if diverged > 0 {
		return 1
	}
	return 0
}
