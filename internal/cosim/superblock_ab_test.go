package cosim

import (
	"encoding/json"
	"testing"

	"xt910/internal/core"
)

// TestSuperblockFastPathIdentity pins the host-speed fast path's soundness
// contract at the cosim level: the predecode cache, the superblock trace
// cache and idle fast-forward are pure host-speed mechanisms, so a fuzz run
// with all three enabled must be byte-identical — architectural state, cycle
// counts, divergence verdicts, JSON-visible report fields — to the same run
// with all three disabled, in every mode profile. Any difference here means
// the fast path changed simulated behaviour, which is a bug by definition.
func TestSuperblockFastPathIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-seed A/B sweep is not short")
	}
	cfgOn := core.XT910Config()
	if !cfgOn.PredecodeCache || !cfgOn.PredecodeSuperblock || !cfgOn.FastForward {
		t.Fatal("XT910Config no longer enables the fast path; the A arm tests nothing")
	}
	cfgOff := core.XT910Config()
	cfgOff.PredecodeCache = false
	cfgOff.PredecodeSuperblock = false
	cfgOff.FastForward = false

	profiles := []struct {
		name  string
		modes Modes
	}{
		{"base", Modes{}},
		{"paged", Modes{Paged: true}},
		{"irq", Modes{IRQ: true}},
		{"smp", Modes{SMP: true}},
	}
	for _, p := range profiles {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 8; seed++ {
				on := Fuzz(seed, 0, Options{Modes: p.modes, Config: cfgOn})
				off := Fuzz(seed, 0, Options{Modes: p.modes, Config: cfgOff})
				if on.Err != nil || off.Err != nil {
					t.Fatalf("seed %d: generation failed: on=%v off=%v", seed, on.Err, off.Err)
				}
				if on.Diverged || off.Diverged {
					t.Fatalf("seed %d: divergence (on=%v off=%v):\n%s%s",
						seed, on.Diverged, off.Diverged, on.Result.Report, off.Result.Report)
				}
				// Result is a comparable struct: this covers commits, cycles,
				// exit code, divergence class, hart, fail commit and the full
				// formatted report in one shot.
				if on.Result != off.Result {
					t.Fatalf("seed %d: results differ\n  fast path on:  %+v\n  fast path off: %+v",
						seed, on.Result, off.Result)
				}
				// The JSON-report view must agree too (guards against a future
				// field that compares equal but marshals differently).
				jOn, err := json.Marshal(on.Result)
				if err != nil {
					t.Fatal(err)
				}
				jOff, err := json.Marshal(off.Result)
				if err != nil {
					t.Fatal(err)
				}
				if string(jOn) != string(jOff) {
					t.Fatalf("seed %d: JSON reports differ\non:  %s\noff: %s", seed, jOn, jOff)
				}
			}
		})
	}
}
