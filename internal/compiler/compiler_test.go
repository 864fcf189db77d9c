package compiler

import (
	"fmt"
	"testing"

	"xt910/internal/asm"
	"xt910/internal/core"
	"xt910/internal/cosim"
	"xt910/isa"
)

// configs are the core configurations that accept be's code: the §VIII
// instructions exist on XT-910 only.
func configs(be Backend) []core.Config {
	if o, ok := be.(Optimized); ok && o.UseCustomExt {
		return []core.Config{core.XT910Config()}
	}
	return []core.Config{core.XT910Config(), core.U74Config(), core.A73Config()}
}

// run compiles f with be and runs it on cfg in lock-step with the golden
// model; the run must halt with no divergence.
func run(t *testing.T, f *Function, be Backend, cfg core.Config, rvc bool) cosim.Result {
	t.Helper()
	p, _ := image(t, f, be, rvc)
	r := cosim.Run(p, cosim.Options{Config: cfg})
	if r.Diverged || r.TimedOut {
		t.Fatalf("%s/%s on %s, rvc=%v: %s", f.Name, be.Name(), cfg.Name, rvc, r.Report)
	}
	return r
}

// TestBackendsAgreeOnSemantics runs every kernel as every backend compiles
// it, with and without RVC, on every core configuration that accepts the
// code, each in lock-step with the golden model: no run may diverge, and all
// of a kernel's runs exit alike.
func TestBackendsAgreeOnSemantics(t *testing.T) {
	for _, f := range Fig20Kernels() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			exits := map[int]string{} // exit code → the first run to give it
			for _, be := range backends {
				for _, cfg := range configs(be) {
					for _, rvc := range []bool{false, true} {
						if code := run(t, f, be, cfg, rvc).ExitCode; exits[code] == "" {
							exits[code] = fmt.Sprintf("%s on %s, rvc=%v", be.Name(), cfg.Name, rvc)
						}
					}
				}
			}
			if len(exits) != 1 {
				t.Fatalf("the runs disagree on the exit code: %v", exits)
			}
		})
	}
}

func TestOptimizedIsFaster(t *testing.T) {
	var totBase, totExt uint64
	for _, f := range Fig20Kernels() {
		cb := run(t, f, Baseline{}, core.XT910Config(), true).Cycles
		ce := run(t, f, Optimized{UseCustomExt: true}, core.XT910Config(), true).Cycles
		totBase += cb
		totExt += ce
		t.Logf("%-12s base=%8d ext=%8d speedup=%.2fx", f.Name, cb, ce, float64(cb)/float64(ce))
	}
	gain := float64(totBase)/float64(totExt) - 1
	t.Logf("overall toolchain gain: %.1f%% (paper: ~20%%)", gain*100)
	if gain < 0.10 {
		t.Fatalf("optimized toolchain should gain >=10%%, got %.1f%%", gain*100)
	}
}

// TestAllocatorKeepsBackendRegisters: a function with more live values than
// t0–t5 and a2–a7 hold computes its result under every backend. The
// allocator used to hand out s2–s7 too, which the backends' loops use for
// their countdown, array bases and walking pointers: keep landed in s2 and
// sum in s3, and all three backends exited with a wrong checksum.
func TestAllocatorKeepsBackendRegisters(t *testing.T) {
	f := &Function{Name: "pressure", Globals: []Global{
		{Name: "arr", Words: 8, Init: func(i int) int32 { return int32(i + 1) }},
	}}
	for i := 0; i < 12; i++ {
		f.Code = append(f.Code, S(Stmt{Kind: SConst, Dst: VReg(i), Imm: int64(i)}))
	}
	const keep, sum, iv, elem, res VReg = 12, 13, 14, 15, 16
	f.Code = append(f.Code,
		S(Stmt{Kind: SConst, Dst: keep, Imm: 1000}),
		S(Stmt{Kind: SConst, Dst: sum}),
		L(Loop{N: 8, Induction: iv, Body: []Stmt{
			{Kind: SLoadIdx, Dst: elem, G: "arr", Idx: iv},
			{Kind: SAdd, Dst: sum, A: sum, B: elem},
		}}),
		S(Stmt{Kind: SAdd, Dst: res, A: sum, B: keep}))
	f.Result = res
	for _, be := range backends {
		for _, rvc := range []bool{false, true} {
			if got := run(t, f, be, core.XT910Config(), rvc).ExitCode; got != 1036 {
				t.Errorf("%s, rvc=%v: exit %d, want 1036", be.Name(), rvc, got)
			}
		}
	}
}

func TestDSERemovesDeadStores(t *testing.T) {
	f := RedundantStores()
	base, err := (Baseline{}).Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := (Optimized{}).Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	if StaticInsts(opt) >= StaticInsts(base) {
		t.Fatalf("DSE should shrink the program: base=%d opt=%d",
			StaticInsts(base), StaticInsts(opt))
	}
}

func TestDeadStoreEliminationUnit(t *testing.T) {
	body := []Stmt{
		{Kind: SStoreG, A: 1, G: "x"},
		{Kind: SStoreG, A: 2, G: "x"}, // kills the first
		{Kind: SLoadG, Dst: 3, G: "x"},
		{Kind: SStoreG, A: 4, G: "x"}, // live (last write)
	}
	out := deadStoreEliminate(body)
	if len(out) != 3 {
		t.Fatalf("expected 3 statements after DSE, got %d", len(out))
	}
	// a read between stores keeps the earlier store alive
	body2 := []Stmt{
		{Kind: SStoreG, A: 1, G: "y"},
		{Kind: SLoadG, Dst: 3, G: "y"},
		{Kind: SStoreG, A: 2, G: "y"},
	}
	if out2 := deadStoreEliminate(body2); len(out2) != 3 {
		t.Fatalf("store before a read must survive, got %d stmts", len(out2))
	}
}

func TestAllocatorOverflow(t *testing.T) {
	f := &Function{Name: "big", Result: 0}
	for i := 0; i < 40; i++ {
		f.Code = append(f.Code, S(Stmt{Kind: SConst, Dst: VReg(i), Imm: int64(i)}))
	}
	for _, be := range backends {
		if _, err := be.Compile(f); err == nil {
			t.Fatalf("%s: expected register allocator overflow error", be.Name())
		}
	}
}

func TestStaticInstsCountsCode(t *testing.T) {
	items := []asm.Item{
		asm.Label("_start"),
		asm.Li(isa.A0, 0x12345678), // two instructions in the image, one here
		asm.La(isa.A1, "data"),
		asm.RRR(isa.ADD, isa.A0, isa.A0, isa.A0),
		asm.Bz(isa.BNE, isa.A0, "_start"),
		asm.Align(3),
		asm.Label("data"),
		asm.Data(4, []int64{5}),
	}
	if n := StaticInsts(items); n != 4 {
		t.Fatalf("static count = %d, want 4", n)
	}
}
