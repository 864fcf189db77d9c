// Toolchain example (§IX / Fig. 20): compiles the same IR kernel with the
// baseline backend and the optimized backends, compares their static
// instruction counts and times them on the XT-910 model, then prints the
// optimized+ext code.
package main

import (
	"fmt"
	"log"

	"xt910"
	"xt910/internal/asm"
	"xt910/internal/compiler"
)

func timeIt(items []asm.Item) (uint64, int) {
	b := asm.NewBuilder(xt910.AsmOptions{Base: 0x1000, Compress: true}, 0)
	b.Add(items)
	p, err := b.Program()
	if err != nil {
		log.Fatal(err)
	}
	sys, err := xt910.NewSystem(xt910.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	sys.LoadProgram(p)
	sys.Run(500_000_000)
	h := sys.Hart(0)
	return h.Stats().Cycles, h.ExitCode()
}

func main() {
	kernel := compiler.DotProduct()
	fmt.Printf("kernel: %s (dot product over 256 elements, %d reps)\n\n",
		kernel.Name, kernel.Repeat)

	backends := []compiler.Backend{
		compiler.Baseline{},
		compiler.Optimized{},                   // §IX compiler optimizations only
		compiler.Optimized{UseCustomExt: true}, // + §VIII custom instructions
	}
	var baseCycles uint64
	var baseExit int
	var items []asm.Item
	for i, be := range backends {
		var err error
		if items, err = be.Compile(kernel); err != nil {
			log.Fatal(err)
		}
		cycles, exit := timeIt(items)
		if i == 0 {
			baseCycles, baseExit = cycles, exit
		} else if exit != baseExit {
			log.Fatalf("%s computes a different result: %d vs %d", be.Name(), exit, baseExit)
		}
		fmt.Printf("%-14s static insts %3d   cycles %8d   speedup %.2fx\n",
			be.Name(), compiler.StaticInsts(items), cycles,
			float64(baseCycles)/float64(cycles))
	}
	fmt.Println("\npaper §X: extensions + optimized compiler ≈ +20% end to end (Fig. 20)")

	// what the last backend emits, up to the globals block
	code := items
	for i, it := range items {
		if it.Kind == asm.KindAlign {
			code = items[:i]
			break
		}
	}
	fmt.Println("\noptimized+ext code:")
	fmt.Print(string(asm.AppendSource(nil, code)))
}
