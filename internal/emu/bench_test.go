package emu

import (
	"testing"

	"xt910/internal/asm"
	"xt910/internal/mem"
	"xt910/internal/workloads"
)

// computeKernels are the benchmark's core-compute kernels, each at the twice
// DefaultIters it runs them at there.
var computeKernels = []string{"coremark", "eembc-aifirf", "nbench-bitfield", "nbench-numsort", "ai-dot-scalar"}

// BenchmarkEmuRun times the golden model alone: each core-compute kernel as a
// sub-benchmark, from a fresh machine to halt. ns/instr is the number to
// watch; allocs/op is a whole run's, machine included. step/coremark takes
// coremark one Step at a time, as every lock-step commit does: its ns/instr
// is the cost of a step.
func BenchmarkEmuRun(b *testing.B) {
	for i, name := range computeKernels {
		var w workloads.Workload
		for _, k := range workloads.All() {
			if k.Name == name {
				w = k
			}
		}
		if w.Gen == nil {
			b.Fatalf("no kernel %q", name)
		}
		p, err := w.Program(2*w.DefaultIters, true)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) { benchRun(b, p, 1<<40) })
		if i == 0 {
			b.Run("step/"+name, func(b *testing.B) { benchRun(b, p, 1) })
		}
	}
}

// benchRun runs p to halt on fresh machines, budget steps per Run call.
func benchRun(b *testing.B, p *asm.Program, budget uint64) {
	b.ReportAllocs()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m := New(mem.NewMemory())
		p.LoadInto(m.Mem)
		m.PC = p.Entry
		m.X[2] = 0x80000
		for !m.Halted {
			if err := m.Run(budget); err != nil {
				b.Fatal(err)
			}
		}
		instrs += m.Instret
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}
