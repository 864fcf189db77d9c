package cosim

import (
	"reflect"
	"testing"

	"xt910/internal/core"
	"xt910/internal/trace"
)

// clockRun is everything of a finished session that could tell how its time
// passed: the result with its report text, and per hart the whole Stats, the
// CPI stack and the commit count.
type clockRun struct {
	Result  Result
	Stats   []core.Stats
	CPI     []trace.CPIStack
	Commits []uint64
}

// drive runs the case's session to the end, each hart under a CPI-only tracer,
// passing time by pass (one call = one Step or one Advance). It returns what
// the session left behind, its hart-cycles and the clock's host counters.
func (fc fuzzCase) drive(t *testing.T, pass func(*Session) bool) (clockRun, uint64, core.FFStats) {
	t.Helper()
	p, opts := fc.build(t)
	s := NewSession(p, opts)
	for i := 0; i < s.Harts(); i++ {
		s.Hart(i).Core().AttachTracer(trace.New(trace.Config{SampleEvery: 1 << 62}))
	}
	for pass(s) {
	}
	var run clockRun
	var cycles uint64
	run.Result = s.Finish()
	for i := 0; i < s.Harts(); i++ {
		h := s.Hart(i)
		c := h.Core()
		if err := c.Tracer().CPI().Check(c.Stats.Cycles); err != nil {
			t.Fatalf("%v hart %d: %v", fc, i, err)
		}
		run.Stats = append(run.Stats, c.Stats)
		run.CPI = append(run.CPI, *c.Tracer().CPI())
		run.Commits = append(run.Commits, h.Commits())
		cycles += c.Now()
	}
	return run, cycles, s.FastForward()
}

func stepOnce(s *Session) bool {
	s.Step()
	return !s.Done()
}

func advanceFreely(s *Session) bool { return s.Advance(^uint64(0)) }

// TestAdvanceMatchesStep: a session driven by Advance ends exactly as one
// driven cycle by cycle — Result and report, every hart's whole Stats, CPI
// stack and commit count — in all five mode combinations, the diverging
// smp,irq seed 83 included, and Advance jumps over more than half the
// hart-cycles in each mode (so it cannot silently stop skipping).
func TestAdvanceMatchesStep(t *testing.T) {
	seeds := int64(24)
	if testing.Short() {
		seeds = 6
	}
	for _, modes := range []string{"", "paged", "irq", "smp", "smp,irq"} {
		var cycles uint64
		var ff core.FFStats
		for seed := int64(1); seed <= seeds; seed++ {
			fc := fuzzCase{modes, seed}
			if modes == "smp,irq" && seed == seeds {
				fc.seed = 83
			}
			stepped, _, none := fc.drive(t, stepOnce)
			if none != (core.FFStats{}) {
				t.Fatalf("%v: Step alone elided cycles: %+v", fc, none)
			}
			advanced, n, f := fc.drive(t, advanceFreely)
			if !reflect.DeepEqual(stepped, advanced) {
				t.Fatalf("%v: Advance changed the run\n  Step:    %+v\n  Advance: %+v", fc, stepped, advanced)
			}
			if fc.seed == 83 && !advanced.Result.Diverged {
				t.Fatal("smp,irq seed 83 no longer diverges: pick another seed with a report")
			}
			cycles += n
			ff.Add(f)
		}
		armed := modes == "irq" || modes == "smp" || modes == "smp,irq"
		if ff.Elided()*2 <= cycles || ff.Frontend == 0 || ff.Backend == 0 || armed != (ff.Armed > 0) {
			t.Errorf("modes %q: Advance elided %+v of %d hart-cycles; want over half, both window kinds, armed=%v",
				modes, ff, cycles, armed)
		}
	}
}

// TestAdvanceNeverPassesLimit: inside an idle window Advance lands on every
// limit exactly — which is how a fault-injection run reaches its cycle — a
// limit already reached costs one stepped cycle, and the run ends the same
// from wherever it was interrupted.
func TestAdvanceNeverPassesLimit(t *testing.T) {
	fc := fuzzCase{"irq", 5}
	want, _, _ := fc.drive(t, advanceFreely)

	// the first window at least 16 cycles wide, found on a throw-away session
	p, opts := fc.build(t)
	probe := NewSession(p, opts)
	var from, to uint64
	for to < from+16 {
		from = probe.Cycles()
		if !probe.Advance(^uint64(0)) {
			t.Fatal("no idle window of 16 cycles in the whole run")
		}
		to = probe.Cycles()
	}
	for limit := from; limit <= to+1; limit++ {
		arrived := false
		got, _, _ := fc.drive(t, func(s *Session) bool {
			if arrived || s.Cycles() != from {
				return s.Advance(^uint64(0))
			}
			arrived = true
			s.Advance(limit)
			lands := limit
			if limit == from {
				lands = from + 1 // no room to jump: one stepped cycle
			} else if limit > to {
				lands = to // the next event, not the limit, ends the window
			}
			if s.Cycles() != lands {
				t.Fatalf("Advance(%d) from cycle %d landed on %d, want %d (window ends at %d)",
					limit, from, s.Cycles(), lands, to)
			}
			return true
		})
		if !arrived {
			t.Fatalf("run never stood at cycle %d", from)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("interrupting the window [%d,%d) at %d changed the run\nwant %+v\n got %+v", from, to, limit, want, got)
		}
	}

	// the cycle budget is a limit too
	opts.MaxCycles = from + 3
	s := NewSession(p, opts)
	for s.Advance(^uint64(0)) {
	}
	if r := s.Finish(); s.Cycles() != from+3 || r.Kind != "hang" || r.Field != "" {
		t.Fatalf("budget of %d cycles: stopped at %d with kind %q field %q, want a hang at the budget", from+3, s.Cycles(), r.Kind, r.Field)
	}
}
