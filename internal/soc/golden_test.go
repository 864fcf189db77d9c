package soc

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/system_golden.txt from this build")

const systemGoldenFile = "testdata/system_golden.txt"

// A clock passes a loaded system's time. systemClock is the System's own;
// steppedClock is the per-cycle reference it must match field for field.
type clock struct {
	// run passes up to max cycles, stopping once every core has halted, and
	// returns the cycles it passed.
	run func(s *System, max uint64) uint64
	// advance passes at least one cycle and never beyond limit.
	advance func(s *System, limit uint64)
}

var (
	systemClock  = clock{run: (*System).Run, advance: func(s *System, limit uint64) { s.Advance(limit) }}
	steppedClock = clock{run: steppedRun, advance: func(s *System, _ uint64) { stepCycle(s) }}
)

// steppedRun is the reference for System.Run: one stepCycle at a time until
// the budget is spent or a cycle finds no core live (that cycle's tick
// happens, but it is not counted).
func steppedRun(s *System, max uint64) uint64 {
	var n uint64
	for n < max && stepCycle(s) {
		n++
	}
	return n
}

// stepCycle is one reference cycle: the CLINT ticks, then every live core
// steps, in hart order. It reports whether any core was live.
func stepCycle(s *System) bool {
	s.CLINT.Advance(1)
	live := false
	for _, c := range s.Cores {
		if !c.Halted {
			c.Step()
			live = true
		}
	}
	return live
}

// A goldenCase is one program of this package's tests with the driver that
// takes it, loaded, to its end on a clock and returns the cycle count.
type goldenCase struct {
	name  string
	cfg   Config
	src   string
	drive func(s *System, k clock) uint64
}

func runFor(max uint64) func(*System, clock) uint64 {
	return func(s *System, k clock) uint64 { return k.run(s, max) }
}

// drivePLIC lets plicSrc set itself up for 2000 cycles, raises source 9 and
// runs to the handler's exit.
func drivePLIC(s *System, k clock) uint64 {
	k.run(s, 2000)
	s.PLIC.Raise(9)
	return k.run(s, 100_000)
}

// goldenCases is every program of soc_test.go and interrupt_test.go, the
// under-a-timer ones at the shortest and the longest period.
func goldenCases() []goldenCase {
	cases := []goldenCase{
		{"smp-4core", smpConfig(4, 1), ".equ NCORES, 4\n" + smpSrc, runFor(50_000_000)},
		{"smp-2x2", smpConfig(2, 2), ".equ NCORES, 4\n" + smpSrc, runFor(50_000_000)},
		{"smp-2core", smpConfig(2, 1), ".equ NCORES, 2\n" + smpSrc, runFor(50_000_000)},
		{"tlb-broadcast", smpConfig(2, 1), tlbBroadcastSrc, runFor(100_000)},
		{"timer", DefaultConfig(), timerSrc, runFor(2_000_000)},
		{"wfi-timer", DefaultConfig(), wfiTimerSrc, runFor(1_000_000)},
		{"ipi", smpConfig(2, 1), ipiSrc, runFor(2_000_000)},
		{"plic", DefaultConfig(), plicSrc, drivePLIC},
	}
	for i, store := range deviceStores {
		cases = append(cases, goldenCase{fmt.Sprintf("device-store/%d", i), DefaultConfig(), deviceStoreSrc(store), runFor(100_000)})
	}
	for _, p := range []int{timerPeriods[0], timerPeriods[len(timerPeriods)-1]} {
		cases = append(cases,
			goldenCase{fmt.Sprintf("atomics-timer/%d", p), DefaultConfig(), atomicsUnderTimerSrc(p), runFor(5_000_000)},
			goldenCase{fmt.Sprintf("vector-timer/%d", p), DefaultConfig(), vectorUnderTimerSrc(p), runFor(5_000_000)},
			goldenCase{fmt.Sprintf("polled-claim/%d", p), DefaultConfig(), polledClaimSrc(p), drivePolledClaim},
		)
	}
	return cases
}

// render is a case's golden entry: the cycle count, the final mtime, and per
// hart its exit code, Stats.String() and the interrupt and WFI counters.
func render(name string, s *System, cycles uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: cycles=%d mtime=%d\n", name, cycles, s.CLINT.MTime())
	for _, c := range s.Cores {
		fmt.Fprintf(&b, "  hart %d: exit=%d %s interrupts=%d wfi-parked=%d\n",
			c.ID, c.ExitCode, c.Stats.String(), c.Stats.Interrupts, c.Stats.WFIParkedCycles)
	}
	return b.String()
}

// TestSystemGolden pins what System.Run makes of every program in this
// package: regenerate with -update-golden only for a change meant to move
// simulated cycles.
func TestSystemGolden(t *testing.T) {
	var b strings.Builder
	for _, gc := range goldenCases() {
		s := load(t, gc.cfg, gc.src)
		b.WriteString(render(gc.name, s, gc.drive(s, systemClock)))
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(systemGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(systemGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden has %d lines, run gave %d", len(wl), len(gl))
	}
}

// TestSystemRunMatchesStepped runs every golden case on the System's clock
// and on the stepped reference: cycle count, mtime, and every hart's exit
// code and Stats must agree field for field. It logs the share of core-cycles
// the System's clock elided.
func TestSystemRunMatchesStepped(t *testing.T) {
	var all, elided uint64
	defer func() { t.Logf("%d of %d core-cycles elided", elided, all) }()
	for _, gc := range goldenCases() {
		ref, s := load(t, gc.cfg, gc.src), load(t, gc.cfg, gc.src)
		refCycles, cycles := gc.drive(ref, steppedClock), gc.drive(s, systemClock)
		for _, c := range s.Cores {
			all += c.Now()
		}
		elided += s.FastForward().Elided()
		if cycles != refCycles || s.CLINT.MTime() != ref.CLINT.MTime() {
			t.Errorf("%s: cycles %d mtime %d, stepped %d and %d", gc.name, cycles, s.CLINT.MTime(), refCycles, ref.CLINT.MTime())
		}
		for i, c := range s.Cores {
			r := ref.Cores[i]
			if c.Stats != r.Stats || c.ExitCode != r.ExitCode || c.Halted != r.Halted {
				t.Errorf("%s hart %d:\n got     exit=%d %+v\n stepped exit=%d %+v", gc.name, i, c.ExitCode, c.Stats, r.ExitCode, r.Stats)
			}
		}
	}
}
