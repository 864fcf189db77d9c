package emu

import (
	"testing"

	"xt910/internal/mem"
	"xt910/internal/workloads"
)

// BenchmarkEmuRun times the golden model alone: coremark at its paper size,
// from a fresh machine to halt. ns/instr is the number to watch; allocs/op is
// a whole run's, machine included.
func BenchmarkEmuRun(b *testing.B) {
	p, err := workloads.CoreMark.Program(workloads.CoreMark.DefaultIters, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m := New(mem.NewMemory())
		p.LoadInto(m.Mem)
		m.PC = p.Entry
		m.X[2] = 0x80000
		if err := m.Run(1 << 40); err != nil {
			b.Fatal(err)
		}
		if !m.Halted {
			b.Fatal("coremark did not halt")
		}
		instrs += m.Instret
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}
