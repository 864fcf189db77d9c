// Command xttrace runs one workload (or an assembly file) on a single-hart
// XT-910 system with the pipeline tracer attached, writes per-µop Konata
// and/or JSONL traces, and prints the top-down CPI stack.
//
// Usage:
//
//	xttrace -konata out.kanata coremark      # trace a named workload
//	xttrace -jsonl out.jsonl prog.s          # trace an assembly file
//	xttrace -start 1000 -stop 2000 coremark  # trace a cycle window
//	xttrace -sample 100 coremark             # keep 1 in 100 µops
//	xttrace -last 2000 coremark              # flight recorder: last 2000 µops
//	xttrace -cpipc 10 coremark               # top-10 stall PCs (per-PC CPI)
//	xttrace -selfcheck -konata t.k coremark  # validate the trace afterwards
//	xttrace -list                            # list workload names
//
// The Konata output opens directly in the Konata pipeline visualizer
// (https://github.com/shioyadan/Konata). The CPI stack always covers the whole
// run; with -selfcheck (and no window/sampling) the tool re-reads the Konata
// file, validates its structure and proves that the traced retire count equals
// the core's retired-instruction counter and that the CPI-stack buckets sum
// exactly to the cycle count.
//
// Exit status: 0 on success, 1 on simulation or self-check failure, 2 on
// usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"xt910/internal/asm"
	"xt910/internal/bench"
	"xt910/internal/cliflags"
	"xt910/internal/core"
	"xt910/internal/soc"
	"xt910/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xttrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	iters := fs.Int("iters", 0, "workload iteration count (0 = a small trace-friendly default)")
	cfg := cliflags.RegisterCoreConfig(fs)
	konataPath := fs.String("konata", "", "write a Kanata pipeline trace to this file")
	jsonlPath := fs.String("jsonl", "", "write a JSONL µop trace to this file")
	start := fs.Uint64("start", 0, "first traced cycle")
	stop := fs.Uint64("stop", 0, "trace µops renamed before this cycle (0 = no limit)")
	sample := fs.Uint64("sample", 0, "keep one in N µops (0 or 1 = all)")
	last := fs.Int("last", 0, "flight recorder: keep only the last N completed µops")
	maxCycles := fs.Uint64("max-cycles", 200_000_000, "simulation cycle budget")
	cpipc := fs.Int("cpipc", 0, "print the top-N stall PCs by attributed backend cycles (0 = off)")
	selfcheck := fs.Bool("selfcheck", false, "re-read the Konata trace and prove the retire/cycle invariants")
	list := fs.Bool("list", false, "list workload names and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, w := range bench.Workloads() {
			fmt.Fprintln(stdout, w.Name)
		}
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "xttrace: exactly one workload name or .s file required (see -list)")
		return 2
	}

	prog, err := loadTarget(fs.Arg(0), *iters)
	if err != nil {
		fmt.Fprintf(stderr, "xttrace: %v\n", err)
		return 1
	}

	// assemble the sink list; files are created up front so a bad path fails
	// before a long simulation
	var sinks []trace.Sink
	var konataFile *os.File
	for _, out := range []struct {
		path string
		mk   func(io.Writer) trace.Sink
	}{
		{*konataPath, func(w io.Writer) trace.Sink { return trace.NewKonataWriter(w) }},
		{*jsonlPath, func(w io.Writer) trace.Sink { return trace.NewJSONLWriter(w) }},
	} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			fmt.Fprintf(stderr, "xttrace: %v\n", err)
			return 1
		}
		defer f.Close()
		if out.path == *konataPath {
			konataFile = f
		}
		sinks = append(sinks, out.mk(f))
	}

	tr := trace.New(trace.Config{
		StartCycle:  *start,
		StopCycle:   *stop,
		SampleEvery: *sample,
		KeepLast:    *last,
	}, sinks...)

	sys, err := soc.New(bench.Machine(*cfg)) // the machine the bench harness runs
	if err != nil {
		fmt.Fprintf(stderr, "xttrace: %v\n", err)
		return 1
	}
	sys.LoadProgram(prog)
	c := sys.Cores[0]
	c.AttachTracer(tr)

	sys.Run(*maxCycles)
	if !c.Halted {
		fmt.Fprintf(stderr, "xttrace: did not halt within %d cycles\n", *maxCycles)
		return 1
	}
	if err := tr.Close(); err != nil {
		fmt.Fprintf(stderr, "xttrace: trace sink: %v\n", err)
		return 1
	}

	st := &c.Stats
	fmt.Fprintf(stdout, "exit %d  cycles %d  retired %d  IPC %.3f  interrupts %d  wfi-parked %d\n",
		c.ExitCode, st.Cycles, st.Retired, st.IPC(), st.Interrupts, st.WFIParkedCycles)
	fmt.Fprintf(stdout, "cpi-stack: %s\n", tr.CPI())
	if *cpipc > 0 {
		printCPIPC(stdout, tr, st.Cycles, *cpipc)
	}
	if tr.Dropped > 0 {
		fmt.Fprintf(stdout, "dropped %d in-flight records\n", tr.Dropped)
	}

	if *selfcheck {
		if err := check(tr, st, konataFile, *start, *stop, *sample, *last); err != nil {
			fmt.Fprintf(stderr, "xttrace: selfcheck: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "selfcheck: ok")
	}
	return 0
}

// printCPIPC renders the per-PC backend-stall table: the top-n PCs by
// attributed stall cycles with per-class splits, plus the exact "other"
// remainder, so the listed cycles sum to the mem+core CPI buckets.
func printCPIPC(stdout io.Writer, tr *trace.Tracer, cycles uint64, n int) {
	rows, other := tr.PCs().TopN(n)
	pct := func(c uint64) float64 {
		if cycles == 0 {
			return 0
		}
		return 100 * float64(c) / float64(cycles)
	}
	fmt.Fprintf(stdout, "cpi-pc (top %d of %d stall PCs):\n", len(rows), tr.PCs().Len())
	for i := range rows {
		e := &rows[i]
		fmt.Fprintf(stdout, "  %-12s %10d cycles %6.1f%%  (mem %d, core %d)\n",
			fmt.Sprintf("0x%x", e.PC), e.Total(), pct(e.Total()),
			e.Buckets[trace.CycleBackendMem], e.Buckets[trace.CycleBackendCore])
	}
	if t := other.Total(); t > 0 {
		fmt.Fprintf(stdout, "  %-12s %10d cycles %6.1f%%  (mem %d, core %d)\n",
			"other", t, pct(t),
			other.Buckets[trace.CycleBackendMem], other.Buckets[trace.CycleBackendCore])
	}
}

// check proves the trace invariants after a run: the CPI-stack buckets
// partition the cycle count, and (for a full, unsampled trace) the Konata log
// is structurally valid with exactly one retire line per retired instruction.
func check(tr *trace.Tracer, st *core.Stats, konataFile *os.File, start, stop, sample uint64, last int) error {
	if err := tr.CPI().Check(st.Cycles); err != nil {
		return err
	}
	if err := tr.PCs().Check(tr.CPI()); err != nil {
		return err
	}
	if konataFile == nil {
		return nil
	}
	if _, err := konataFile.Seek(0, io.SeekStart); err != nil {
		return err
	}
	ks, err := trace.ValidateKonata(konataFile)
	if err != nil {
		return err
	}
	full := start == 0 && stop == 0 && sample <= 1 && last == 0 && tr.Dropped == 0
	if full && ks.Retired != st.Retired {
		return fmt.Errorf("konata trace retires %d µops, core retired %d", ks.Retired, st.Retired)
	}
	return nil
}

// loadTarget assembles a named workload or, when the argument names an
// existing .s file, that file's source.
func loadTarget(name string, iters int) (*asm.Program, error) {
	if strings.HasSuffix(name, ".s") {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		return asm.Assemble(string(src), asm.Options{Base: 0x1000, Compress: true})
	}
	w, ok := bench.FindWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (see -list)", name)
	}
	if iters <= 0 {
		// traces get big fast: default to a handful of iterations
		iters = max(w.DefaultIters/10, 1)
	}
	return w.Program(iters, true)
}
