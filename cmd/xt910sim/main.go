// Command xt910sim runs a program — an assembly file or a named workload — on
// the XT-910 model: the cycle-approximate pipeline on the machine the bench
// harness measures (default), or the functional golden emulator (-emu). It
// is the CDS "instruction accurate simulator" and profiler of §IX: hart 0 can
// carry the pipeline tracer, which writes per-µop Konata and/or JSONL traces
// and measures the top-down CPI stack.
//
// Usage:
//
//	xt910sim prog.s                          # run on the XT-910 pipeline
//	xt910sim -iters 1 coremark               # run a named workload (-list names them)
//	xt910sim -config u74 prog.s              # comparison-core configuration
//	xt910sim -emu -trace prog.s              # functional emulation with a trace
//	xt910sim -cores 4 prog.s                 # 4-core SMP cluster
//	xt910sim -stats prog.s                   # performance counters and the CPI stack
//	xt910sim -konata out.kanata coremark     # Konata pipeline trace of hart 0
//	xt910sim -jsonl out.jsonl prog.s         # JSONL µop trace of hart 0
//	xt910sim -start 1000 -stop 2000 -konata out.kanata coremark  # a cycle window
//	xt910sim -sample 100 -jsonl out.jsonl coremark  # keep 1 in 100 µops
//	xt910sim -last 2000 -konata out.kanata coremark # flight recorder: last 2000 µops
//	xt910sim -cpipc 10 coremark              # top-10 stall PCs (per-PC CPI)
//	xt910sim -selfcheck -konata t.k coremark # validate the trace afterwards
//	xt910sim -cpuprofile cpu.pb prog.s       # host CPU profile of the run (go tool pprof)
//
// The machine is bench.Machine — one core over a 2 MB L2 — with -cores and
// -clusters applied, so a single-hart run takes the cycles xtbench reports.
// The tracer is attached only when an output needs it (a trace file, -cpipc,
// -selfcheck or -stats): it costs host time. Its CPI stack always covers the
// whole run; with -selfcheck (and no window or sampling) the Konata file is
// re-read, validated and shown to retire exactly the core's retired count,
// and the CPI-stack buckets are shown to sum to the cycle count. The Konata
// output opens in the Konata pipeline visualizer
// (https://github.com/shioyadan/Konata).
//
// Exit status: 0 when hart 0 halts (and -selfcheck holds), 1 when it does
// not halt within -max-cycles or the run or self-check fails, 2 on usage
// errors. The program's own exit code is printed, not returned: a workload's
// exit code is its checksum.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"xt910"
	"xt910/internal/asm"
	"xt910/internal/bench"
	"xt910/internal/cliflags"
	"xt910/internal/core"
	"xt910/internal/soc"
	"xt910/internal/trace"
	"xt910/isa"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// tracerFlags observe the pipeline tracer, which only the pipeline has.
var tracerFlags = []string{"konata", "jsonl", "start", "stop", "sample", "last", "cpipc", "selfcheck"}

func run(args []string, stdout, stderr io.Writer) (rc int) {
	fs := flag.NewFlagSet("xt910sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coreCfg := cliflags.RegisterCoreConfig(fs)
	useEmu := fs.Bool("emu", false, "run on the functional emulator")
	iters := fs.Int("iters", 0, "workload iteration count (0 = a small trace-friendly default)")
	list := fs.Bool("list", false, "list workload names and exit")
	printTrace := fs.Bool("trace", false, "print every retired instruction")
	stats := fs.Bool("stats", false, "print the performance counters and the CPI stack")
	cores := fs.Int("cores", 1, "cores per cluster (1, 2 or 4)")
	clusters := fs.Int("clusters", 1, "clusters (1-4)")
	compress := fs.Bool("compress", true, "enable RVC auto-compression")
	maxCycles := fs.Uint64("max-cycles", 500_000_000, "simulation budget")
	konataPath := fs.String("konata", "", "write a Kanata pipeline trace of hart 0 to this file")
	jsonlPath := fs.String("jsonl", "", "write a JSONL µop trace of hart 0 to this file")
	start := fs.Uint64("start", 0, "first traced cycle")
	stop := fs.Uint64("stop", 0, "trace µops renamed before this cycle (0 = no limit)")
	sample := fs.Uint64("sample", 0, "keep one in N µops (0 or 1 = all)")
	last := fs.Int("last", 0, "flight recorder: keep only the last N completed µops")
	cpipc := fs.Int("cpipc", 0, "print the top-N stall PCs by attributed backend cycles (0 = off)")
	selfcheck := fs.Bool("selfcheck", false, "re-read the Konata trace and prove the retire/cycle invariants")
	prof := cliflags.RegisterProfile(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "xt910sim:", err)
		return 1
	}
	if *list {
		for _, w := range bench.Workloads() {
			fmt.Fprintln(stdout, w.Name)
		}
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: xt910sim [flags] program.s|workload (see -list)")
		fs.PrintDefaults()
		return 2
	}
	if *useEmu {
		var traced []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(tracerFlags, f.Name) {
				traced = append(traced, "-"+f.Name)
			}
		})
		if len(traced) > 0 {
			fmt.Fprintf(stderr, "xt910sim: %s trace the pipeline; -emu has none\n", strings.Join(traced, " "))
			return 2
		}
	}

	prog, err := loadTarget(fs.Arg(0), *iters, *compress)
	if err != nil {
		return fail(err)
	}
	stopProfile, err := cliflags.StartProfile(prof)
	if err != nil {
		fmt.Fprintln(stderr, "xt910sim:", err)
		return 2
	}
	defer func() {
		if err := stopProfile(); err != nil {
			rc = fail(err)
		}
	}()

	if *useEmu {
		m := xt910.NewEmulator(prog)
		if *printTrace {
			m.Trace = func(pc uint64, in isa.Inst) {
				fmt.Fprintf(stdout, "%8x: %v\n", pc, in)
			}
		}
		if err := m.Run(*maxCycles); err != nil {
			return fail(err)
		}
		stdout.Write(m.Output)
		fmt.Fprintf(stdout, "\n[emu] halted=%v exit=%d instret=%d\n", m.Halted, m.ExitCode, m.Instret)
		if !m.Halted {
			return fail(fmt.Errorf("did not halt within %d instructions", *maxCycles))
		}
		return 0
	}

	cfg := bench.Machine(*coreCfg)
	cfg.CoresPerCluster, cfg.Clusters = *cores, *clusters
	sys, err := soc.New(cfg)
	if err != nil {
		return fail(err)
	}
	sys.LoadProgram(prog)
	c := sys.Cores[0]
	if *printTrace {
		c.CommitHook = func(ci *core.Commit) {
			fmt.Fprintf(stdout, "%8x: %v\n", ci.PC, ci.Inst)
		}
	}

	// the trace files are created up front, so a bad path fails before a
	// long simulation
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
			return fail(err)
		}
		defer func() {
			if err := f.Close(); err != nil && rc == 0 {
				rc = fail(err)
			}
		}()
		if out.path == *konataPath {
			konataFile = f
		}
		sinks = append(sinks, out.mk(f))
	}
	var tr *trace.Tracer
	if len(sinks) > 0 || *cpipc > 0 || *selfcheck || *stats {
		tr = trace.New(trace.Config{StartCycle: *start, StopCycle: *stop, SampleEvery: *sample, KeepLast: *last}, sinks...)
		c.AttachTracer(tr)
	}

	sys.Run(*maxCycles)
	if tr != nil {
		if err := tr.Close(); err != nil {
			return fail(fmt.Errorf("trace sink: %w", err))
		}
	}

	for _, h := range sys.Cores {
		stdout.Write(h.Output)
	}
	fmt.Fprintln(stdout)
	for i, h := range sys.Cores {
		fmt.Fprintf(stdout, "[hart %d] halted=%v exit=%d %s\n", i, h.Halted, h.ExitCode, h.Stats.String())
		if *stats {
			printCounters(stdout, h)
		}
		if i == 0 && tr != nil {
			fmt.Fprintf(stdout, "cpi-stack: %s\n", tr.CPI())
			if *cpipc > 0 {
				printCPIPC(stdout, tr, c.Stats.Cycles, *cpipc)
			}
			if tr.Dropped > 0 {
				fmt.Fprintf(stdout, "dropped %d in-flight records\n", tr.Dropped)
			}
		}
	}
	if !c.Halted {
		return fail(fmt.Errorf("hart 0 did not halt within %d cycles", *maxCycles))
	}
	if *selfcheck {
		if err := check(tr, &c.Stats, konataFile, *start, *stop, *sample, *last); err != nil {
			return fail(fmt.Errorf("selfcheck: %w", err))
		}
		fmt.Fprintln(stdout, "selfcheck: ok")
	}
	return 0
}

// loadTarget assembles the named .s file or, for any other name, the
// workload of that name.
func loadTarget(name string, iters int, compress bool) (*asm.Program, error) {
	if strings.HasSuffix(name, ".s") {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		return asm.Assemble(string(src), asm.Options{Base: 0x1000, Compress: compress})
	}
	w, ok := bench.FindWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (see -list)", name)
	}
	if iters <= 0 {
		// traces get big fast: default to a handful of iterations
		iters = max(w.DefaultIters/10, 1)
	}
	return w.Program(iters, compress)
}

func printCounters(w io.Writer, c *core.Core) {
	s := &c.Stats
	fmt.Fprintf(w, "  frontend : branches=%d mispred=%d (%.2f%%) l0btb=%d loopbuf-insts=%d jalr-stalls=%d\n",
		s.Branches, s.BrMispredicts, 100*s.MispredictRate(),
		s.L0BTBRedirects, s.LoopBufInsts, s.FetchJalrStalls)
	fmt.Fprintf(w, "  lsu      : loads=%d stores=%d fwd=%d unaligned=%d violations=%d flushes=%d\n",
		s.Loads, s.Stores, s.StoreForwards, s.UnalignedAccesses,
		s.MemOrderViolations, s.MemOrderFlushes)
	fmt.Fprintf(w, "  stalls   : rob=%d lq=%d sq=%d iq=%d phys=%d ckpt=%d\n",
		s.StallROB, s.StallLQ, s.StallSQ, s.StallIQ, s.StallPhys, s.StallCkpt)
	l1d := c.L1D.Cache.Stats
	l1i := c.L1I.Cache.Stats
	fmt.Fprintf(w, "  caches   : L1D %d/%d misses (%.2f%%), L1I %d/%d misses (%.2f%%)\n",
		l1d.Misses, l1d.Accesses, 100*l1d.MissRate(),
		l1i.Misses, l1i.Accesses, 100*l1i.MissRate())
	fmt.Fprintf(w, "  tlb      : lookups=%d uhits=%d jhits=%d walks=%d prefills=%d\n",
		c.MMU.Stats.Lookups, c.MMU.Stats.MicroHits, c.MMU.Stats.JointHits,
		c.MMU.Stats.Walks, c.MMU.Stats.Prefills)
	fmt.Fprintf(w, "  prefetch : trains=%d l1=%d l2=%d tlb=%d throttled=%d\n",
		c.PF.Stats.Trains, c.PF.Stats.L1Issued, c.PF.Stats.L2Issued,
		c.PF.Stats.TLBIssued, c.PF.Stats.Throttled)
	fmt.Fprintf(w, "  vector   : ops=%d vl-spec-fails=%d\n", s.VecOps, s.VlSpecFails)
	fmt.Fprintf(w, "  irq      : interrupts=%d wfi-parked=%d\n", s.Interrupts, s.WFIParkedCycles)
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
