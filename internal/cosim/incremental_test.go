package cosim

import (
	"fmt"
	"math/rand"
	"testing"

	"xt910/internal/core"
	"xt910/internal/workloads"
	"xt910/isa"
)

// oracleModes is the cli-smoke fuzz seed set: each mode set with how many
// seeds from 1 it runs.
var oracleModes = []struct {
	modes string
	n     int64
}{{"", 200}, {"paged", 60}, {"irq", 60}, {"smp", 40}, {"smp,irq", 40}}

// watchCompare wraps every hart's commit hook so that after each checked
// commit the full compare — core.ArchRegMismatch over the golden model's
// files, then fcsr read from both models — is run on the same state and held
// to the checker's incremental verdict: the same register when the checker
// failed on one, the same fcsr verdict, and no difference when it passed
// both. Commits the checker failed before reaching its register compare are
// not comparable and are skipped; compared counts the rest. perturb, when
// non-nil, runs before each commit on its hart pair.
func watchCompare(t *testing.T, name string, s *Session, perturb func(hs *HartSession), compared *int) {
	for i := 0; i < s.Harts(); i++ {
		hs := s.Hart(i)
		c, m, k := hs.c, hs.m, hs.k
		checked := c.CommitHook
		c.CommitHook = func(ci *core.Commit) {
			if perturb != nil && !k.failed {
				perturb(hs)
			}
			wasFailed := k.failed
			checked(ci)
			if wasFailed {
				return
			}
			// what the full compare says, in the checker's terms
			want := "clean"
			if r, cv, differs := c.ArchRegMismatch(&m.X, &m.F); differs {
				kind := "xreg"
				if r.IsF() {
					kind = "freg"
				}
				want = fmt.Sprintf("%s %s: core=%#x emu=%#x", kind, r, cv, m.Reg(r))
			} else if c.CSR(isa.CSRFcsr) != m.CSR(isa.CSRFcsr) {
				want = "fcsr"
			}
			got := "clean"
			switch k.kind {
			case "":
			case "xreg", "freg":
				got = k.kind + " " + k.detail[0]
			case "fcsr":
				got = "fcsr"
			case "lrsc", "instret": // registers passed, fcsr was not reached
				if want == "fcsr" {
					want = "clean"
				}
			case "halt", "emuerr", "pc", "irq":
				return // failed before the register compare
			}
			*compared++
			if got != want {
				t.Fatalf("%s hart %d commit %d (%s): checker %q, full compare %q", name, hs.id, k.commits, ci.Inst, got, want)
			}
		}
	}
}

// TestIncrementalCompareMatchesFull holds the per-commit register and fcsr
// compare, which reads only what either model changed since the last commit,
// to the full compare at every commit: over the cli-smoke fuzz seed set in
// every mode set, each seed once more with one to three registers or fcsr
// perturbed through the marked write paths (the golden model's SetReg and
// SetCSR, the core's InjectArchRegBit) at a seeded commit, and over the six
// lock-step benchmark kernels.
func TestIncrementalCompareMatchesFull(t *testing.T) {
	total, diverged := 0, 0
	for _, om := range oracleModes {
		modes, err := ParseModes(om.modes)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= om.n; seed++ {
			opts := Options{Modes: modes}
			p, irqs, err := GenerateProgram(seed, 0, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.IRQSchedules = irqs
			for _, perturbed := range []bool{false, true} {
				name := fmt.Sprintf("%q seed %d perturbed=%v", om.modes, seed, perturbed)
				var perturb func(hs *HartSession)
				if perturbed {
					perturb = perturbAt(rand.New(rand.NewSource(seed)))
				}
				s := NewSession(p, opts)
				watchCompare(t, name, s, perturb, &total)
				if r := stepToEnd(s); r.Diverged {
					diverged++
					if !perturbed {
						t.Fatalf("%s diverged:\n%s", name, r.Report)
					}
				}
				s.Release()
			}
		}
	}
	iters := func(w workloads.Workload) int { return w.DefaultIters }
	if raceEnabled {
		iters = func(workloads.Workload) int { return 1 }
	}
	kernels := map[string]bool{"coremark": true, "nbench-numsort": true, "eembc-tblook": true,
		"eembc-a2time": true, "eembc-pntrch": true, "ai-dot-vector": true}
	for _, w := range workloads.All() {
		if !kernels[w.Name] {
			continue
		}
		delete(kernels, w.Name)
		p, err := w.Program(iters(w), true)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession(p, Options{MaxCycles: 1 << 32})
		watchCompare(t, w.Name, s, nil, &total)
		if r := stepToEnd(s); r.Diverged {
			t.Fatalf("%s diverged:\n%s", w.Name, r.Report)
		}
		s.Release()
	}
	if len(kernels) != 0 {
		t.Fatalf("kernels not found: %v", kernels)
	}
	if diverged < 100 {
		t.Errorf("only %d perturbed runs diverged: the perturbation hardly reaches the compare", diverged)
	}
	t.Logf("%d commits compared both ways, %d perturbed runs diverged", total, diverged)
}

// perturbAt returns a perturbation that fires once, before a commit drawn
// from rng in [20, 300), on the first hart pair to get there: one to three
// registers (any of x1–x31, f0–f31) get one bit flipped, each in the golden
// model through SetReg or in the core through InjectArchRegBit, or fcsr gets
// a flag flipped in the golden model.
func perturbAt(rng *rand.Rand) func(hs *HartSession) {
	at, done := uint64(20+rng.Intn(280)), false
	return func(hs *HartSession) {
		if done || hs.k.commits+1 != at {
			return
		}
		done = true
		if rng.Intn(8) == 0 {
			m := hs.m
			mstatus := m.CSR(isa.CSRMstatus)
			m.SetCSR(isa.CSRFcsr, m.CSR(isa.CSRFcsr)^1<<rng.Intn(5))
			m.SetCSR(isa.CSRMstatus, mstatus) // undo the FS-dirty side effect
			return
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			r, bit := isa.Reg(1+rng.Intn(63)), uint(rng.Intn(64))
			if rng.Intn(2) == 0 {
				hs.m.SetReg(r, hs.m.Reg(r)^1<<bit)
			} else {
				hs.c.InjectArchRegBit(int(r), bit)
			}
		}
	}
}
