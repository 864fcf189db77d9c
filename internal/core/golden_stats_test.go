package core_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"xt910/internal/asm"
	"xt910/internal/bench"
	"xt910/internal/cache"
	"xt910/internal/coherence"
	"xt910/internal/core"
	"xt910/internal/cosim"
	"xt910/internal/mem"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_stats.txt from this build")

const goldenStatsFile = "testdata/golden_stats.txt"

// goldenKernels are run at reduced iterations: the point is every counter of
// a stall-dominated, an FP-streaming, a branchy and a pointer-chasing kernel,
// not their full-size run time.
var goldenKernels = []struct {
	name  string
	iters int
}{
	{"speclike", 1},
	{"stream", 1},
	{"coremark", 4},
	{"eembc-pntrch", 15},
}

// goldenStatsLines simulates every golden point and renders one
// "name: {Stats}" line each, in a fixed order.
func goldenStatsLines(t *testing.T) []string {
	t.Helper()
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"xt910", core.XT910Config()},
		{"u74", core.U74Config()},
		{"a73", core.A73Config()},
	}
	var lines []string
	for _, k := range goldenKernels {
		w, ok := bench.FindWorkload(k.name)
		if !ok {
			t.Fatalf("no workload %q", k.name)
		}
		p, err := w.Program(k.iters, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range configs {
			s := runKernel(t, c.cfg, p)
			lines = append(lines, fmt.Sprintf("%s/%d/%s: %+v", k.name, k.iters, c.name, s))
		}
	}
	// Fuzz seeds run on the Step path of a cosim session: translation on
	// (SV39) and the interrupt protocol armed reach code no kernel does.
	for _, f := range []struct {
		modes string
		seed  int64
	}{{"paged", 3}, {"irq", 5}} {
		modes, err := cosim.ParseModes(f.modes)
		if err != nil {
			t.Fatal(err)
		}
		opts := cosim.Options{Modes: modes}
		src, irq := cosim.GenerateSource(f.seed, 0, opts)
		opts.IRQSchedule = irq
		p, err := asm.Assemble(src, asm.Options{Base: 0x1000, Compress: true})
		if err != nil {
			t.Fatal(err)
		}
		s := cosim.NewSession(p, opts)
		for !s.Done() {
			s.Step()
		}
		if r := s.Finish(); r.Diverged {
			t.Fatalf("fuzz %s/%d diverged: %s", f.modes, f.seed, r.Kind)
		}
		lines = append(lines, fmt.Sprintf("fuzz/%s/%d: %+v", f.modes, f.seed, s.Hart(0).Core().Stats))
	}
	return lines
}

// runKernel builds the single-core system the harness builds (2 MB L2,
// 200-cycle DRAM) and runs p to halt through Run, fast-forward included.
func runKernel(t *testing.T, cfg core.Config, p *asm.Program) core.Stats {
	t.Helper()
	memory := mem.NewMemory()
	l2 := coherence.NewL2(cache.Config{SizeBytes: 2 << 20, Ways: 16, LineBytes: 64,
		HitLatency: 10, ECC: true, Parity: true}, mem.NewDRAM())
	c := core.New(cfg, 0, memory, l2)
	p.LoadInto(memory)
	c.Reset(p.Entry, 0x400000)
	c.Run(400_000_000)
	if !c.Halted {
		t.Fatalf("did not halt: %s", c.Stats.String())
	}
	return c.Stats
}

// TestGoldenStats pins the whole Stats struct of fixed runs to values
// captured before the host-side data path was rewritten: a host-only change
// that moves any simulated count fails here, by name and counter.
func TestGoldenStats(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates ~10M instructions")
	}
	got := goldenStatsLines(t)
	if *updateGolden {
		if err := os.WriteFile(goldenStatsFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenStatsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d golden points, file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("Stats moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
