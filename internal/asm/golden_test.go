package asm_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"xt910/internal/asm"
	"xt910/internal/cosim"
	"xt910/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_programs.txt from this build")

const goldenProgramsFile = "testdata/golden_programs.txt"

var fuzzModes = []string{"", "paged", "irq", "smp"}

// fuzzSource generates the fuzz program a seed denotes in one mode.
func fuzzSource(t testing.TB, modes string, seed int64) string {
	t.Helper()
	m, err := cosim.ParseModes(modes)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := cosim.GenerateSource(seed, 0, cosim.Options{Modes: m})
	return src
}

// goldenKernels is every checked-in kernel, the two long-running ones included.
func goldenKernels() []workloads.Workload {
	return append(workloads.All(), workloads.Stream, workloads.SpecLike)
}

// goldenLine renders everything a Program carries: its bytes and its sorted
// symbol table as digests, entry and instruction count in the clear.
func goldenLine(name string, p *asm.Program) string {
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	syms := sha256.New()
	for _, n := range names {
		fmt.Fprintf(syms, "%s=%#x\n", n, p.Symbols[n])
	}
	return fmt.Sprintf("%s: data=%x base=%#x entry=%#x insts=%d nsyms=%d syms=%x",
		name, sha256.Sum256(p.Data), p.Base, p.Entry, p.NumInsts, len(names), syms.Sum(nil))
}

func goldenProgramLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, w := range goldenKernels() {
		for _, compress := range []bool{true, false} {
			p, err := w.Program(w.DefaultIters, compress)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			lines = append(lines, goldenLine(fmt.Sprintf("kernel/%s/rvc=%v", w.Name, compress), p))
		}
	}
	for _, modes := range fuzzModes {
		for seed := int64(1); seed <= 100; seed++ {
			p, err := asm.Assemble(fuzzSource(t, modes, seed), asm.Options{Base: 0x1000, Compress: true})
			if err != nil {
				t.Fatalf("fuzz %q seed %d: %v", modes, seed, err)
			}
			lines = append(lines, goldenLine(fmt.Sprintf("fuzz/%s/%d", modes, seed), p))
		}
	}
	return lines
}

// TestGoldenPrograms holds the assembler to the images it produced before
// each source line was tokenized once: every kernel with and without RVC and
// 100 fuzz programs per mode must assemble to the same bytes, entry,
// instruction count and symbol table. The file was captured on the commit
// before the rewrite.
func TestGoldenPrograms(t *testing.T) {
	got := goldenProgramLines(t)
	if *updateGolden {
		if err := os.WriteFile(goldenProgramsFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenProgramsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d golden programs, file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("image moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// BenchmarkAssembleFuzz is the assembler's share of a fuzz seed: one
// generated program per mode, assembled the way cosim.FuzzContext does.
func BenchmarkAssembleFuzz(b *testing.B) {
	var srcs []string
	lines := 0
	for _, modes := range fuzzModes {
		src := fuzzSource(b, modes, 7)
		srcs = append(srcs, src)
		lines += strings.Count(src, "\n")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := asm.Assemble(src, asm.Options{Base: 0x1000, Compress: true}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
}
