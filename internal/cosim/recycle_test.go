package cosim

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"xt910/internal/asm"
	"xt910/internal/cache"
	"xt910/internal/core"
	"xt910/internal/recycle"
)

// fuzzCase is one (mode set, seed) fuzz program.
type fuzzCase struct {
	modes string
	seed  int64
}

// build generates and assembles the case the way FuzzContext does.
func (fc fuzzCase) build(t testing.TB) (*asm.Program, Options) {
	t.Helper()
	modes, err := ParseModes(fc.modes)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Modes: modes}
	p, irqs, err := GenerateProgram(fc.seed, 40, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.IRQSchedules = irqs
	return p, opts
}

// outcome is everything of a finished session a later reader could see.
type outcome struct {
	Result     Result
	Core       []core.Stats
	L1I, L1D   []cache.Stats
	L2         cache.Stats
	CMem, EMem map[uint64][]byte
}

// run drives the case's session to the end and collects its outcome; release
// says whether the session's storage goes back on the free lists afterwards.
func (fc fuzzCase) run(t testing.TB, release bool) outcome {
	p, opts := fc.build(t)
	s := NewSession(p, opts)
	o := outcome{Result: stepToEnd(s), L2: s.L2().Cache.Stats}
	for i := 0; i < s.Harts(); i++ {
		c := s.Hart(i).Core()
		o.Core = append(o.Core, c.Stats)
		o.L1I = append(o.L1I, c.L1I.Cache.Stats)
		o.L1D = append(o.L1D, c.L1D.Cache.Stats)
	}
	o.CMem = s.Hart(0).Core().Mem.Snapshot()
	o.EMem = s.Hart(0).Emu().Mem.Snapshot()
	if release {
		s.Release()
		s.Release() // a second release is a no-op
	}
	return o
}

// TestRecycledSessionsAreFresh: a session built on storage that earlier
// sessions dirtied and released ends exactly as one built on empty free lists
// does — Result with its report text, every hart's pipeline and L1 counters,
// the L2 counters and both final memories — whatever ran before it, in
// whatever order, and on two workers at once. The last smp case is an smp,irq
// seed that diverges (an interrupt-cause mismatch of the multi-hart delivery
// protocol), so the report text is not always empty.
func TestRecycledSessionsAreFresh(t *testing.T) {
	perMode := int64(40)
	if testing.Short() {
		perMode = 6
	}
	var cases []fuzzCase
	for _, modes := range []string{"", "paged", "irq", "smp"} {
		for seed := int64(1); seed <= perMode; seed++ {
			if modes == "smp" && seed == perMode {
				modes, seed = "smp,irq", 83
			}
			cases = append(cases, fuzzCase{modes, seed})
		}
	}
	want := make(map[fuzzCase]outcome, len(cases))
	for _, fc := range cases {
		recycle.Drain()
		want[fc] = fc.run(t, false)
	}
	if r := want[fuzzCase{"smp,irq", 83}].Result; !r.Diverged || r.Report == "" {
		t.Fatalf("smp,irq seed 83 no longer diverges: pick another seed with a report")
	}

	reversed := make([]fuzzCase, len(cases))
	interleaved := make([]fuzzCase, 0, len(cases))
	for i, fc := range cases {
		reversed[len(cases)-1-i] = fc
	}
	for i := 0; i < int(perMode); i++ {
		for m := 0; m < 4; m++ {
			interleaved = append(interleaved, cases[m*int(perMode)+i])
		}
	}
	for _, order := range []struct {
		name  string
		cases []fuzzCase
	}{{"forward", cases}, {"reversed", reversed}, {"interleaved", interleaved}} {
		for _, fc := range order.cases {
			if got := fc.run(t, true); !reflect.DeepEqual(got, want[fc]) {
				t.Fatalf("%s: %q seed %d on recycled storage differs from a fresh session:\n got %+v\nwant %+v",
					order.name, fc.modes, fc.seed, got.Result, want[fc].Result)
			}
		}
	}

	// The same list on two workers, through the code that releases for real.
	for _, modes := range []string{"", "paged", "irq", "smp", "smp,irq"} {
		var seeds []int64
		for _, fc := range interleaved {
			if fc.modes == modes {
				seeds = append(seeds, fc.seed)
			}
		}
		m, _ := ParseModes(modes)
		frs, err := RunSeeds(context.Background(), seeds, 0, Options{Modes: m}, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range frs {
			if w := want[fuzzCase{modes, fr.Seed}].Result; !reflect.DeepEqual(fr.Result, w) {
				t.Errorf("RunSeeds: %q seed %d differs from a fresh session:\n got %+v\nwant %+v", modes, fr.Seed, fr.Result, w)
			}
		}
	}
}

// TestReleaseAfterFaultInjection: state the fault injector corrupts behind
// the models' backs — a ROB age tag, a rename entry, a register, memory under
// an L1D line, a raw memory byte — is storage like any other, so a session
// released after it leaves nothing behind for the next one.
func TestReleaseAfterFaultInjection(t *testing.T) {
	fc := fuzzCase{"", 3}
	recycle.Drain()
	want := fc.run(t, false)
	for target := 0; target < 5; target++ {
		p, opts := fc.build(t)
		s := NewSession(p, opts)
		for !s.Done() && s.Cycles() < 300 {
			s.Step()
		}
		c := s.Hart(0).Core()
		switch target {
		case 0:
			c.InjectArchRegBit(9, 17)
		case 1:
			c.InjectRenameBit(12, 3)
		case 2:
			c.InjectROBAgeBit(5, 40)
		case 3:
			c.InjectCacheLineBit(2, 5)
		case 4:
			c.InjectMemBit(0x1040, 6)
		}
		stepToEnd(s)
		s.Release()
		if got := fc.run(t, true); !reflect.DeepEqual(got, want) {
			t.Fatalf("after an injected fault on target %d was released, seed %d differs from a fresh session:\n got %+v\nwant %+v",
				target, fc.seed, got.Result, want.Result)
		}
	}
}

// seedObjects bounds what one campaign item allocates in each mode: a
// FuzzWatched seed (seed 7, 40 segments) under a one-minute watchdog, once the
// free lists hold a session's worth of storage. Each bound is the measured
// count plus 10 %: 70, 93, 131 and 147 objects. A seed took 230, 240, 274 and
// 422 while the halt-time compare built two ArchStates and every core regrew
// its issue queues, register file and vector units; 289 to 542 before the
// generator handed the assembler Items; 2903 to 3592 before session storage
// was recycled.
var seedObjects = map[string]float64{"": 77, "paged": 102, "irq": 144, "smp": 161}

// TestFuzzSeedAllocBudget: every fuzz seed — each one, not the average: what
// a list holds may not depend on when the garbage collector last ran —
// allocates under 256 KB (it was 2.5 MB, nine tenths of it the memory
// system's tables) and at most its mode's seedObjects.
func TestFuzzSeedAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, modes := range []string{"", "paged", "irq", "smp"} {
		m, _ := ParseModes(modes)
		opts := Options{Modes: m, SeedTimeout: time.Minute}
		seed := func() {
			if fr := FuzzWatched(context.Background(), 7, 0, opts); fr.Err != nil || fr.Diverged || fr.TimedOut {
				t.Fatalf("%q seed 7: err=%v diverged=%v timed out=%v", modes, fr.Err, fr.Diverged, fr.TimedOut)
			}
		}
		seed() // warm-up: fills the free lists
		var objects float64
		for i := 0; i < 4; i++ {
			runtime.GC() // two collections would empty a sync.Pool
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			seed()
			runtime.ReadMemStats(&after)
			if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 256<<10 {
				t.Errorf("%q: run %d allocates %d bytes, budget %d", modes, i, bytes, 256<<10)
			}
			if objects = testing.AllocsPerRun(1, seed); objects > seedObjects[modes] {
				t.Errorf("%q: run %d allocates %v objects, budget %v", modes, i, objects, seedObjects[modes])
			}
		}
		t.Logf("%q: %v objects a seed", modes, objects)
	}
}
