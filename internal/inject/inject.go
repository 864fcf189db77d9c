// Package inject runs seeded transient-fault campaigns against the lock-step
// checker: it flips single bits of live core state (architectural registers,
// rename-map entries, ROB age tags, L1D-resident lines, raw memory) at a
// chosen cycle mid-run and classifies what the differential cosim machinery
// does about it.
//
// The taxonomy, per fault:
//
//   - Detected: the checker diverged after the flip; detection latency is
//     measured in commits from injection to the first mismatch.
//   - Masked: the run finished clean and the faulted state had been
//     overwritten (or never consumed) — the fault provably did not escape.
//   - Silent: the run finished clean but the faulted word still differs
//     between the two models. Only the raw-memory and cache channels can
//     produce this (the checker's written-line sweep does not cover bytes no
//     store touched); architectural-state faults must never be Silent —
//     the register files are compared at every commit and at halt.
//   - Crashed: the simulator panicked; the worker pool converted it into a
//     recovered *sched.PanicError instead of killing the campaign.
//   - Timeout: the run blew its wall-clock deadline.
//   - NotInjected: the program halted before the injection cycle, or the
//     target never became available (e.g. an always-empty ROB).
//
// Campaigns are deterministic: every fault parameter derives from the seed,
// runs execute on the internal/sched pool, and results are reported in
// submission order, so a campaign's report is byte-identical at any worker
// count.
package inject

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"xt910/internal/cosim"
	"xt910/internal/sched"
)

// Target names a fault-injection channel.
type Target int

// The five channels, in report order.
const (
	TargetArchReg Target = iota // retirement-map physical register payload
	TargetRename                // speculative rename-map entry
	TargetROBAge                // ROB entry sequence/age tag
	TargetCache                 // byte under a valid L1D line
	TargetMem                   // raw memory byte, bypassing every hook
	numTargets
)

var targetNames = [numTargets]string{"archreg", "rename", "robage", "cache", "mem"}

func (t Target) String() string { return targetNames[t] }

// Arch reports whether t corrupts state with an architectural contract: a
// Silent outcome on such a target is a checker coverage hole and fails the
// campaign.
func (t Target) Arch() bool { return t == TargetArchReg || t == TargetRename || t == TargetROBAge }

// Outcome classifies what became of one injected fault.
type Outcome int

// Outcomes, in report order.
const (
	Detected Outcome = iota
	Masked
	Silent
	Crashed
	Timeout
	NotInjected
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"detected", "masked", "silent", "crashed", "timeout", "notinjected"}

func (o Outcome) String() string { return outcomeNames[o] }

// Fault is one planned bit flip.
type Fault struct {
	Seed   int64  // program seed (also seeds the fault parameters)
	Target Target // channel
	Cycle  uint64 // injection cycle
	Reg    int    // architectural register ordinal (archreg/rename)
	Bit    uint   // bit to flip
	Index  int    // ROB-entry / cache-line ordinal
	Addr   uint64 // memory fault address (mem target)
}

// FaultResult is one fault's classified outcome.
type FaultResult struct {
	Fault
	Outcome         Outcome
	Kind            string // cosim divergence class when Detected
	CommitsAtInject uint64
	DetectLatency   uint64 // commits from injection to first mismatch (Detected)
	FaultAddr       uint64 // resolved byte address (cache/mem targets)
	Err             string // recovered panic or pool error (Crashed)
}

// Options configures a campaign.
type Options struct {
	Seeds         []int64
	FaultsPerSeed int           // faults planned per seed (default 8)
	Segs          int           // program segments (0: fuzzer default)
	Jobs          int           // worker-pool width (0: GOMAXPROCS)
	Timeout       time.Duration // per-run wall deadline (default 60s)
	MaxCycles     uint64        // per-run cycle budget (0: 4×control + 20000)
}

// Report is a classified campaign.
type Report struct {
	ControlFailures []string // control (no-fault) runs that diverged: false positives
	Results         []FaultResult
}

// control holds one seed's clean-run measurements.
type control struct {
	cycles  uint64
	failure string
}

// RunCampaign executes the two-phase campaign: one control run per seed
// (false-positive check, and the cycle count that places the injections),
// then FaultsPerSeed fault runs per seed.
func RunCampaign(ctx context.Context, opts Options) (*Report, error) {
	if opts.FaultsPerSeed <= 0 {
		opts.FaultsPerSeed = 8
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 60 * time.Second
	}
	rep := &Report{}

	// Phase 1: control runs.
	ctl := make([]control, len(opts.Seeds))
	jobs := make([]sched.Job, len(opts.Seeds))
	for i, seed := range opts.Seeds {
		i, seed := i, seed
		jobs[i] = sched.Job{
			ID:      fmt.Sprintf("control/seed%d", seed),
			Timeout: opts.Timeout,
			Run: func(ctx context.Context) (any, error) {
				r, err := cleanRun(ctx, seed, opts)
				if err != nil {
					return control{}, err
				}
				c := control{cycles: r.Cycles}
				if r.TimedOut {
					c.failure = fmt.Sprintf("seed %d: control run timed out", seed)
				} else if r.Diverged {
					c.failure = fmt.Sprintf("seed %d: control run diverged (%s at commit %d)", seed, r.Kind, r.FailCommit)
				}
				sched.AddCycles(ctx, r.Cycles)
				return c, nil
			},
		}
	}
	for i, r := range sched.Run(ctx, jobs, sched.Options{Workers: opts.Jobs}) {
		if r.Err != nil {
			return nil, r.Err
		}
		ctl[i] = r.Value.(control)
		if f := ctl[i].failure; f != "" {
			rep.ControlFailures = append(rep.ControlFailures, f)
		}
	}

	// Phase 2: fault runs. Parameters derive from the seed and fault ordinal
	// only, so a re-run (at any worker count) plans the identical campaign.
	var faults []Fault
	for i, seed := range opts.Seeds {
		if ctl[i].failure != "" || ctl[i].cycles == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(seed<<20 + 0x17ec7))
		for f := 0; f < opts.FaultsPerSeed; f++ {
			lo, hi := ctl[i].cycles/8, ctl[i].cycles*3/4
			if hi <= lo {
				hi = lo + 1
			}
			faults = append(faults, Fault{
				Seed:   seed,
				Target: Target(rng.Intn(int(numTargets))),
				Cycle:  lo + uint64(rng.Int63n(int64(hi-lo))),
				Reg:    1 + rng.Intn(63),
				Bit:    uint(rng.Intn(64)),
				Index:  rng.Intn(64),
				Addr:   uint64(rng.Intn(0x90000)),
			})
		}
	}
	jobs = make([]sched.Job, len(faults))
	for i, f := range faults {
		i, f := i, f
		maxCycles := opts.MaxCycles
		if maxCycles == 0 {
			for j, seed := range opts.Seeds {
				if seed == f.Seed {
					maxCycles = 4*ctl[j].cycles + 20000
					break
				}
			}
		}
		jobs[i] = sched.Job{
			ID:      fmt.Sprintf("fault/seed%d/%d", f.Seed, i),
			Timeout: opts.Timeout,
			Run: func(ctx context.Context) (any, error) {
				fr := runFault(ctx, f, opts, maxCycles)
				return fr, nil
			},
		}
	}
	rep.Results = make([]FaultResult, len(faults))
	for i, r := range sched.Run(ctx, jobs, sched.Options{Workers: opts.Jobs}) {
		if r.Err != nil {
			// a recovered panic is itself a campaign datum
			rep.Results[i] = FaultResult{Fault: faults[i], Outcome: Crashed, Err: r.Err.Error()}
			continue
		}
		rep.Results[i] = r.Value.(FaultResult)
	}
	return rep, nil
}

// cleanRun executes seed's program with no fault.
func cleanRun(ctx context.Context, seed int64, opts Options) (cosim.Result, error) {
	prog, _, err := cosim.GenerateProgram(seed, opts.Segs, cosim.Options{})
	if err != nil {
		return cosim.Result{}, err
	}
	return cosim.RunContext(ctx, prog, cosim.Options{}), nil
}

// runFault executes one fault run: step to the injection cycle, flip the bit
// (with a bounded retry while the target is transiently unavailable), run the
// program out and classify.
func runFault(ctx context.Context, f Fault, opts Options, maxCycles uint64) FaultResult {
	fr := FaultResult{Fault: f, Outcome: NotInjected}
	prog, _, err := cosim.GenerateProgram(f.Seed, opts.Segs, cosim.Options{})
	if err != nil {
		fr.Outcome = Crashed
		fr.Err = err.Error()
		return fr
	}
	s := cosim.NewSession(prog, cosim.Options{MaxCycles: maxCycles})
	defer s.Release()
	for s.Cycles() < f.Cycle && s.Advance(f.Cycle) {
	}
	// Inject, retrying for a bounded window when the target is transiently
	// unavailable (empty ROB, no valid L1D lines yet).
	injected := false
	for retry := 0; !injected && !s.Done() && retry < 4096; retry++ {
		c := s.Hart(0).Core()
		switch f.Target {
		case TargetArchReg:
			injected = c.InjectArchRegBit(f.Reg, f.Bit)
		case TargetRename:
			injected = c.InjectRenameBit(f.Reg, f.Bit)
		case TargetROBAge:
			injected = c.InjectROBAgeBit(f.Index, f.Bit)
		case TargetCache:
			fr.FaultAddr, injected = c.InjectCacheLineBit(f.Index, f.Bit)
		case TargetMem:
			fr.FaultAddr = f.Addr
			c.InjectMemBit(f.Addr, f.Bit)
			injected = true
		}
		if !injected {
			s.Step()
		}
	}
	if !injected {
		return fr
	}
	fr.CommitsAtInject = s.Commits()
	for i := 0; s.Advance(^uint64(0)); i++ {
		if i&1023 == 0 && ctx.Err() != nil {
			fr.Outcome = Timeout
			return fr
		}
	}
	r := s.Finish()
	switch {
	case r.TimedOut:
		fr.Outcome = Timeout
	case r.Diverged:
		fr.Outcome = Detected
		fr.Kind = r.Kind
		if r.FailCommit >= fr.CommitsAtInject {
			fr.DetectLatency = r.FailCommit - fr.CommitsAtInject
		}
	default:
		fr.Outcome = Masked
		if f.Target == TargetCache || f.Target == TargetMem {
			// the written-line sweep does not cover untouched bytes: check the
			// faulted byte itself to expose genuinely silent corruption
			h := s.Hart(0)
			if h.Core().Mem.LoadByte(fr.FaultAddr) != h.Emu().Mem.LoadByte(fr.FaultAddr) {
				fr.Outcome = Silent
			}
		}
	}
	return fr
}

// SilentArch counts Silent outcomes on architectural-state targets — the
// number that must be zero for the checker's coverage claim to hold.
func (r *Report) SilentArch() int {
	n := 0
	for _, fr := range r.Results {
		if fr.Outcome == Silent && fr.Target.Arch() {
			n++
		}
	}
	return n
}

// Count returns the number of results with the given outcome.
func (r *Report) Count(o Outcome) int {
	n := 0
	for _, fr := range r.Results {
		if fr.Outcome == o {
			n++
		}
	}
	return n
}

// Format renders the deterministic campaign report: outcome matrix per
// target, detection-latency statistics and the failure lists. It contains no
// wall-clock times, so two runs of the same campaign render byte-identically.
func (r *Report) Format() string {
	var b strings.Builder
	var mat [numTargets][numOutcomes]int
	lat := make(map[Target][]uint64)
	for _, fr := range r.Results {
		mat[fr.Target][fr.Outcome]++
		if fr.Outcome == Detected {
			lat[fr.Target] = append(lat[fr.Target], fr.DetectLatency)
		}
	}
	fmt.Fprintf(&b, "fault-injection campaign: %d faults\n\n", len(r.Results))
	fmt.Fprintf(&b, "%-8s", "target")
	for o := Outcome(0); o < numOutcomes; o++ {
		fmt.Fprintf(&b, "%12s", o)
	}
	b.WriteByte('\n')
	for t := Target(0); t < numTargets; t++ {
		fmt.Fprintf(&b, "%-8s", t)
		for o := Outcome(0); o < numOutcomes; o++ {
			fmt.Fprintf(&b, "%12d", mat[t][o])
		}
		b.WriteByte('\n')
	}
	b.WriteString("\ndetection latency (commits from injection to first mismatch):\n")
	for t := Target(0); t < numTargets; t++ {
		ls := lat[t]
		if len(ls) == 0 {
			continue
		}
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		var sum uint64
		for _, l := range ls {
			sum += l
		}
		fmt.Fprintf(&b, "  %-8s n=%-4d min=%-6d median=%-6d max=%-6d mean=%.1f\n",
			t, len(ls), ls[0], ls[len(ls)/2], ls[len(ls)-1], float64(sum)/float64(len(ls)))
	}
	if len(r.ControlFailures) > 0 {
		b.WriteString("\ncontrol failures (false positives):\n")
		for _, f := range r.ControlFailures {
			fmt.Fprintf(&b, "  %s\n", f)
		}
	}
	if n := r.SilentArch(); n > 0 {
		fmt.Fprintf(&b, "\nSILENT ARCHITECTURAL CORRUPTION: %d faults escaped the checker\n", n)
		for _, fr := range r.Results {
			if fr.Outcome == Silent && fr.Target.Arch() {
				fmt.Fprintf(&b, "  seed %d %s reg=%d bit=%d cycle=%d\n", fr.Seed, fr.Target, fr.Reg, fr.Bit, fr.Cycle)
			}
		}
	}
	return b.String()
}
