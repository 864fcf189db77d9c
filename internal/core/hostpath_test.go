package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"xt910/internal/workloads"
	"xt910/isa"
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

// TestArchRegMismatchMatchesRegLoops holds the folded compare to the loops it
// replaced — Reg over x1–x31, then f0–f31, first difference wins — on dense
// random register values with zero to three differences of random bits, a
// scrambled retirement map included. x0 never counts.
func TestArchRegMismatchMatchesRegLoops(t *testing.T) {
	c, _ := buildCore(XT910Config())
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 5000; trial++ {
		if trial%100 == 0 { // remap: any permutation of physical registers
			perm := rng.Perm(len(c.pf.val))
			for r := 1; r < 64; r++ {
				c.archRAT[r] = int16(perm[r])
			}
		}
		var x, f [32]uint64
		for r := 1; r < 64; r++ {
			v := rng.Uint64() | 1<<uint(rng.Intn(64))
			c.pf.val[c.archRAT[r]] = v
			if r < 32 {
				x[r] = v
			} else {
				f[r-32] = v
			}
		}
		for n := rng.Intn(4); n > 0; n-- {
			r, mask := rng.Intn(64), rng.Uint64()|1
			if r < 32 {
				x[r] ^= mask // r == 0: the golden x0 is never compared
			} else {
				f[r-32] ^= mask
			}
		}
		wantReg, wantVal, want := isa.Reg(0), uint64(0), false
		for r := 1; r < 64 && !want; r++ {
			golden := x[r&31]
			if r >= 32 {
				golden = f[r-32]
			}
			if v := c.Reg(isa.Reg(r)); v != golden {
				wantReg, wantVal, want = isa.Reg(r), v, true
			}
		}
		if reg, val, got := c.ArchRegMismatch(&x, &f); got != want || reg != wantReg || val != wantVal {
			t.Fatalf("trial %d: got (%v, %#x, %v), the Reg loops give (%v, %#x, %v)", trial, reg, val, got, wantReg, wantVal, want)
		}
	}
}
