// Command xt910sim runs an assembly program on the XT-910 model: either the
// cycle-approximate pipeline (default) or the functional golden emulator
// (-emu), with optional instruction tracing — the CDS "instruction accurate
// simulator" and profiler roles from §IX.
//
// Usage:
//
//	xt910sim prog.s                 # run on the XT-910 pipeline
//	xt910sim -config u74 prog.s     # comparison-core configuration
//	xt910sim -emu -trace prog.s     # functional emulation with a trace
//	xt910sim -cores 4 prog.s        # 4-core SMP cluster
//	xt910sim -stats prog.s          # print the performance-counter dump
//	xt910sim -cpuprofile cpu.pb prog.s   # host CPU profile of the run (go tool pprof)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"xt910"
	"xt910/internal/cliflags"
	"xt910/internal/core"
	"xt910/isa"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (rc int) {
	fs := flag.NewFlagSet("xt910sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coreCfg := cliflags.RegisterCoreConfig(fs)
	useEmu := fs.Bool("emu", false, "run on the functional emulator")
	trace := fs.Bool("trace", false, "print every retired instruction")
	stats := fs.Bool("stats", false, "print the performance counters")
	cores := fs.Int("cores", 1, "cores per cluster (1, 2 or 4)")
	clusters := fs.Int("clusters", 1, "clusters (1-4)")
	compress := fs.Bool("compress", true, "enable RVC auto-compression")
	maxCycles := fs.Uint64("max-cycles", 500_000_000, "simulation budget")
	prof := cliflags.RegisterProfile(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "xt910sim:", err)
		return 1
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: xt910sim [flags] program.s")
		fs.PrintDefaults()
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	prog, err := xt910.Assemble(string(src), xt910.AsmOptions{Base: 0x1000, Compress: *compress})
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
		if *trace {
			m.Trace = func(pc uint64, in isa.Inst) {
				fmt.Fprintf(stdout, "%8x: %v\n", pc, in)
			}
		}
		if err := m.Run(*maxCycles); err != nil {
			return fail(err)
		}
		stdout.Write(m.Output)
		fmt.Fprintf(stdout, "\n[emu] halted=%v exit=%d instret=%d\n", m.Halted, m.ExitCode, m.Instret)
		return exitCode(m.ExitCode)
	}

	cfg := xt910.DefaultConfig()
	cfg.Core = *coreCfg
	cfg.CoresPerCluster = *cores
	cfg.Clusters = *clusters
	sys, err := xt910.NewSystem(cfg)
	if err != nil {
		return fail(err)
	}
	sys.LoadProgram(prog)
	if *trace {
		sys.Hart(0).Core().CommitHook = func(ci *core.Commit) {
			fmt.Fprintf(stdout, "%8x: %v\n", ci.PC, ci.Inst)
		}
	}
	sys.Run(*maxCycles)

	for i := 0; i < sys.Harts(); i++ {
		stdout.Write(sys.Hart(i).Output())
	}
	fmt.Fprintln(stdout)
	for i := 0; i < sys.Harts(); i++ {
		h := sys.Hart(i)
		c := h.Core()
		fmt.Fprintf(stdout, "[hart %d] halted=%v exit=%d %s\n", i, c.Halted, c.ExitCode, c.Stats.String())
		if *stats {
			printCounters(stdout, h)
		}
	}
	return exitCode(sys.Hart(0).ExitCode())
}

func printCounters(w io.Writer, h xt910.Hart) {
	c := h.Core()
	s := h.Stats()
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
}

func exitCode(code int) int {
	if code == 0 {
		return 0
	}
	return 1
}
