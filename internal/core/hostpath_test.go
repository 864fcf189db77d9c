package core

import (
	"testing"
	"unsafe"

	"xt910/internal/workloads"
)

// TestRunSteadyStateAllocs: once the queues, the predictors' tables and the
// touched memory pages exist, a window of Run allocates nothing — not in the
// pipeline, not in the FP flag computation (stream is fadd.d/fmul.d/fmadd.d
// over normal operands), not in fast-forward (speclike is stall-dominated).
func TestRunSteadyStateAllocs(t *testing.T) {
	for _, k := range []struct {
		w      workloads.Workload
		warmup uint64 // cycles until every page the kernel writes exists
	}{
		{workloads.Stream, 150_000},
		{workloads.SpecLike, 3_000_000},
	} {
		p, err := k.w.Program(k.w.DefaultIters, true)
		if err != nil {
			t.Fatal(err)
		}
		c, memory := buildCore(XT910Config())
		p.LoadInto(memory)
		c.Reset(p.Entry, 0x400000)
		c.Run(k.warmup)
		if n := testing.AllocsPerRun(20, func() { c.Run(2000) }); n != 0 {
			t.Errorf("%s: %v allocations per 2000-cycle Run window after warm-up", k.w.Name, n)
		}
		if c.Halted {
			t.Fatalf("%s halted inside the measured windows: nothing was measured", k.w.Name)
		}
	}
}

// TestHotStructSizes keeps the per-instruction records small on purpose: the
// hot part of a ROB entry (everything above uop.br) within two cache lines,
// an IBUF entry under its old by-value size, and the static record a
// power of two so the predecode and superblock tables index by shift.
func TestHotStructSizes(t *testing.T) {
	if got := unsafe.Offsetof(uop{}.br); got > 128 {
		t.Errorf("hot part of uop is %d bytes, want <= 128", got)
	}
	if got := unsafe.Sizeof(fqEntry{}); got > 112 {
		t.Errorf("fqEntry is %d bytes, want <= 112", got)
	}
	if got := unsafe.Sizeof(sinst{}); got != 32 {
		t.Errorf("sinst is %d bytes, want 32", got)
	}
}
