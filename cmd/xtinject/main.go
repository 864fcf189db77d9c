// Command xtinject runs a seeded transient-fault campaign (internal/inject)
// against the lock-step checker: single bit flips in architectural registers,
// rename-map entries, ROB age tags, L1D-resident lines and raw memory, each
// classified as detected / masked / silent / crashed / timeout.
//
// Usage:
//
//	xtinject                      # seeds 1..10, 8 faults each
//	xtinject -n 25 -seed 100      # seeds 100..124
//	xtinject -faults 16           # more faults per seed
//	xtinject -jobs 1              # serial; report identical at any width
//	xtinject -timeout 30s         # per-run wall deadline
//
// The report is deterministic (byte-identical at any -jobs). Exit status: 0
// on a clean campaign, 1 when any architectural-state fault went silent, a
// control run diverged (false positive), or the campaign errored; 2 on usage
// errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"xt910/internal/cliflags"
	"xt910/internal/inject"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xtinject", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cf cliflags.Knobs
	cf.RegisterSeeds(fs, 10)
	cf.RegisterPool(fs)
	cf.RegisterTimeout(fs, 60*time.Second, "per-run wall deadline")
	faults := fs.Int("faults", 8, "faults injected per seed")
	segs := fs.Int("segs", 0, "segments per program (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts := inject.Options{
		FaultsPerSeed: *faults,
		Segs:          *segs,
		Jobs:          cf.Jobs,
		Timeout:       cf.Timeout,
		Seeds:         cf.Seeds(),
	}
	rep, err := inject.RunCampaign(context.Background(), opts)
	if err != nil {
		fmt.Fprintf(stderr, "xtinject: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, rep.Format())
	if rep.SilentArch() > 0 || len(rep.ControlFailures) > 0 {
		return 1
	}
	return 0
}
