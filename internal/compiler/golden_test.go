package compiler

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"xt910/internal/asm"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/images_golden.txt from this build")

const goldenImagesFile = "testdata/images_golden.txt"

// backends is every code generator, in report order.
var backends = []Backend{Baseline{}, Optimized{}, Optimized{UseCustomExt: true}}

// image compiles f with be and builds the program at the address the paper
// harness uses, with or without RVC; it also returns the static count.
func image(t testing.TB, f *Function, be Backend, rvc bool) (*asm.Program, int) {
	t.Helper()
	items, err := be.Compile(f)
	if err != nil {
		t.Fatalf("%s/%s: %v", f.Name, be.Name(), err)
	}
	b := asm.NewBuilder(asm.Options{Base: 0x1000, Compress: rvc}, 0)
	b.Add(items)
	p, err := b.Program()
	if err != nil {
		t.Fatalf("%s/%s: %v", f.Name, be.Name(), err)
	}
	return p, StaticInsts(items)
}

// goldenLine renders an image as digests of its bytes and sorted symbol
// table, with entry, instruction count and static count in the clear.
func goldenLine(name string, p *asm.Program, static int) string {
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	syms := sha256.New()
	for _, n := range names {
		fmt.Fprintf(syms, "%s=%#x\n", n, p.Symbols[n])
	}
	return fmt.Sprintf("%s: data=%x entry=%#x insts=%d syms=%x static=%d",
		name, sha256.Sum256(p.Data), p.Entry, p.NumInsts, syms.Sum(nil), static)
}

// TestGoldenImages holds every Fig. 20 kernel, compiled by each backend with
// and without RVC, to the image and static count recorded in
// testdata/images_golden.txt. The file was captured while the backends still
// printed assembly text; the images must not move unless a backend's code
// generation changes on purpose (regenerate with -update-golden).
func TestGoldenImages(t *testing.T) {
	var got []string
	for _, f := range Fig20Kernels() {
		for _, be := range backends {
			for _, rvc := range []bool{false, true} {
				p, static := image(t, f, be, rvc)
				got = append(got, goldenLine(fmt.Sprintf("%s/%s/rvc=%v", f.Name, be.Name(), rvc), p, static))
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenImagesFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenImagesFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d golden images, file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("image moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
