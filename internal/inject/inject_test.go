package inject

import (
	"context"
	"testing"
	"time"

	"xt910/internal/cosim"
)

func smallCampaign(t *testing.T, jobs int) *Report {
	t.Helper()
	rep, err := RunCampaign(context.Background(), Options{
		Seeds:         []int64{1, 2, 3, 4},
		FaultsPerSeed: 6,
		Jobs:          jobs,
		Timeout:       2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCampaignCoverage runs the fixed-seed campaign and checks the coverage
// contract: no control false positives, zero silent architectural corruption,
// and at least one detected fault with a measured latency.
func TestCampaignCoverage(t *testing.T) {
	rep := smallCampaign(t, 4)
	if len(rep.ControlFailures) > 0 {
		t.Fatalf("control runs diverged (false positives): %v", rep.ControlFailures)
	}
	if n := rep.SilentArch(); n > 0 {
		t.Fatalf("%d architectural-state faults went silent:\n%s", n, rep.Format())
	}
	if rep.Count(Detected) == 0 {
		t.Fatalf("campaign detected nothing:\n%s", rep.Format())
	}
	for _, fr := range rep.Results {
		if fr.Outcome == Crashed {
			t.Errorf("fault crashed the simulator: %+v: %s", fr.Fault, fr.Err)
		}
		if fr.Outcome == Detected && fr.CommitsAtInject == 0 {
			t.Errorf("detected fault with no injection commit recorded: %+v", fr.Fault)
		}
	}
}

// TestCampaignDeterministic requires the formatted report to be
// byte-identical at any worker-pool width.
func TestCampaignDeterministic(t *testing.T) {
	a := smallCampaign(t, 1).Format()
	b := smallCampaign(t, 4).Format()
	if a != b {
		t.Fatalf("campaign reports differ between jobs=1 and jobs=4:\n--- jobs=1\n%s\n--- jobs=4\n%s", a, b)
	}
}

// TestArchRegFaultsNeverSilent drives the archreg channel directly across a
// spread of cycles and bits: every fault must be Detected, Masked or (when
// the run ends first) NotInjected — Silent would be a checker coverage hole.
func TestArchRegFaultsNeverSilent(t *testing.T) {
	opts := Options{Timeout: 2 * time.Minute}
	for seed := int64(1); seed <= 3; seed++ {
		for i, cycle := range []uint64{50, 400, 1500} {
			f := Fault{
				Seed:   seed,
				Target: TargetArchReg,
				Cycle:  cycle,
				Reg:    1 + int(seed*7+int64(i*11))%63,
				Bit:    uint(i * 13 % 64),
			}
			fr := runFault(context.Background(), f, opts, 200_000)
			switch fr.Outcome {
			case Detected, Masked, NotInjected:
			default:
				t.Errorf("archreg fault %+v classified %s", f, fr.Outcome)
			}
		}
	}
}

// TestFaultLandsOnItsCycle: a fault run reaches its injection cycle on the
// session's event-driven clock, jumping idle windows, and must stand exactly
// where a session stepped cycle by cycle stands — seen as the commit count at
// injection, over a stretch of consecutive cycles that crosses both.
func TestFaultLandsOnItsCycle(t *testing.T) {
	prog, _, err := cosim.GenerateProgram(2, 0, cosim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := cosim.NewSession(prog, cosim.Options{})
	distinct := map[uint64]bool{}
	for cycle := uint64(600); cycle < 760; cycle++ {
		for s.Cycles() < cycle {
			s.Step()
		}
		f := Fault{Seed: 2, Target: TargetMem, Cycle: cycle, Addr: 0x8f000}
		fr := runFault(context.Background(), f, Options{Timeout: time.Minute}, 200_000)
		if fr.Outcome == NotInjected || fr.CommitsAtInject != s.Commits() {
			t.Fatalf("fault at cycle %d: %s at commit %d, a stepped session stands at commit %d",
				cycle, fr.Outcome, fr.CommitsAtInject, s.Commits())
		}
		distinct[fr.CommitsAtInject] = true
	}
	if len(distinct) < 4 || len(distinct) > 100 {
		t.Fatalf("160 cycles saw %d distinct commit counts: the stretch no longer crosses idle windows and commits", len(distinct))
	}
}
