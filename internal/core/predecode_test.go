package core

import (
	"testing"

	"xt910/internal/asm"
)

func TestPredecodeUnit(t *testing.T) {
	p := newPredecode()
	in4 := asmInstForTest(t, "addi a0, a0, 2")
	p.insert(0x1000, in4)
	if got, ok := p.lookup(0x1000); !ok || got != in4 {
		t.Fatal("insert/lookup round trip failed")
	}
	if _, ok := p.lookup(0x1002); ok {
		t.Fatal("neighbouring granule must miss")
	}

	// a write to any byte the instruction may span drops the entry
	for _, wr := range []struct {
		addr uint64
		size int
		hit  bool
	}{
		{0x0ffc, 2, true},  // ends below the entry: untouched
		{0x0ffe, 2, true},  // ends at 0xfff, still below the entry
		{0x0ffe, 4, false}, // overlaps the first halfword
		{0x1000, 1, false}, // first byte
		{0x1003, 1, false}, // last byte of the 4-byte encoding
		{0x1004, 8, true},  // starts past the entry
	} {
		p.flush()
		p.insert(0x1000, in4)
		p.invalidate(wr.addr, wr.size)
		if _, ok := p.lookup(0x1000); ok != wr.hit {
			t.Fatalf("write [%#x,+%d): lookup hit=%v, want %v", wr.addr, wr.size, ok, wr.hit)
		}
	}

	// underflow guard: invalidating at address 0 must not wrap
	p.invalidate(0, 4)
	p.flush()
	if _, ok := p.lookup(0x1000); ok {
		t.Fatal("flush must empty the cache")
	}
}

// TestPredecodeInvalidateWrapBoundary is the fixed repro for the wrap-boundary
// bug: a store whose byte range reaches the top of the address space makes
// pa+size overflow to 0, so the scan's `g < pa+size` condition was false on
// entry and nothing was invalidated — stale decodes survived a committed
// store. A 4-byte store straddling the 2-byte granules at the boundary must
// drop every entry it touches.
func TestPredecodeInvalidateWrapBoundary(t *testing.T) {
	in4 := asmInstForTest(t, "addi a0, a0, 2")
	top := ^uint64(0) - 3 // 0xfff...fffc: last 2-byte-aligned 4-byte slot

	p := newPredecode()
	p.insert(top, in4)
	p.invalidate(top, 4) // pa+size wraps to 0
	if _, ok := p.lookup(top); ok {
		t.Fatalf("store [%#x,+4) left the entry at %#x live (pa+size overflow)", top, top)
	}

	// The same store spans two granules; both must be dropped.
	p.flush()
	p.insert(top, in4)
	p.insert(top+2, in4) // entry whose 4 bytes wrap past the boundary
	p.invalidate(top+2, 4)
	if _, ok := p.lookup(top); ok {
		t.Fatalf("straddling store left the lower granule entry at %#x live", top)
	}
	if _, ok := p.lookup(top + 2); ok {
		t.Fatalf("straddling store left the upper granule entry at %#x live", top+2)
	}
}

// asmInstForTest assembles a single instruction and decodes it back into its
// pre-cracked record.
func asmInstForTest(t *testing.T, src string) sinst {
	t.Helper()
	prog, err := asm.Assemble("_start:\n    "+src+"\n", asm.Options{Base: 0x1000})
	if err != nil {
		t.Fatal(err)
	}
	c, memory := buildCore(XT910Config())
	prog.LoadInto(memory)
	var got sinst
	if !c.decodeAt(0x1000, &got) {
		t.Fatal("decodeAt failed")
	}
	return got
}

// selfModifyingProgram patches a callee instruction at runtime: the first
// call adds 1, then the caller stores `addi a0, a0, 2` over it, issues
// fence.i, and calls again. Correct final a0 is 1 + 2 = 3.
const selfModifyingProgram = `
_start:
    li   a0, 0
    la   t1, patch
    la   t2, newinst
    lw   t3, 0(t2)
    jal  ra, patch
    sw   t3, 0(t1)
    fence.i
    jal  ra, patch
    li   a7, 93
    ecall
patch:
    addi a0, a0, 1
    ret
newinst:
    .word 0x00250513   # addi a0, a0, 2
`

func TestPredecodeSelfModifyingCode(t *testing.T) {
	for _, enabled := range []bool{true, false} {
		cfg := XT910Config()
		cfg.PredecodeCache = enabled
		c := runCore(t, cfg, selfModifyingProgram)
		if c.ExitCode != 3 {
			t.Fatalf("predecode=%v: exit = %d, want 3 (stale decode served?)", enabled, c.ExitCode)
		}
	}
}

// TestPredecodeSelfModifyingNoFence exercises the conservative invalidation:
// even without fence.i the model (cached or not) picks up the committed
// store, because the cache drops overlapping entries at commit time.
const smcNoFenceProgram = `
_start:
    li   a0, 0
    la   t1, patch
    la   t2, newinst
    lw   t3, 0(t2)
    sw   t3, 0(t1)
    jal  ra, patch
    li   a7, 93
    ecall
patch:
    addi a0, a0, 1
    ret
newinst:
    .word 0x00250513   # addi a0, a0, 2
`

func TestPredecodeSelfModifyingNoFence(t *testing.T) {
	var exits [2]int
	for i, enabled := range []bool{true, false} {
		cfg := XT910Config()
		cfg.PredecodeCache = enabled
		c := runCore(t, cfg, smcNoFenceProgram)
		exits[i] = c.ExitCode
	}
	if exits[0] != exits[1] {
		t.Fatalf("cache changed architectural behaviour: %d vs %d", exits[0], exits[1])
	}
}

func TestPredecodeHitRate(t *testing.T) {
	src := `
_start:
    li   t0, 1000
    li   a0, 0
loop:
    addi a0, a0, 3
    addi t0, t0, -1
    bnez t0, loop
    li   a7, 93
    ecall
`
	// superblock replay should carry the hot loop almost entirely
	cfg := XT910Config()
	c := runCore(t, cfg, src)
	if c.Stats.SuperblockHits == 0 {
		t.Fatal("hot loop must replay from the superblock cache")
	}
	if c.Stats.SuperblockHits < 10*(c.Stats.PredecodeMisses+c.Stats.PredecodeHits) {
		t.Fatalf("superblock replay rate too low: %d replays / %d decoder visits",
			c.Stats.SuperblockHits, c.Stats.PredecodeHits+c.Stats.PredecodeMisses)
	}

	// with superblocks off, the per-instruction cache takes over
	cfg.PredecodeSuperblock = false
	c1 := runCore(t, cfg, src)
	if c1.Stats.SuperblockHits != 0 {
		t.Fatal("disabled superblock cache must not count")
	}
	if c1.Stats.PredecodeHits == 0 {
		t.Fatal("hot loop must hit the predecode cache")
	}
	if c1.Stats.PredecodeHits < 10*c1.Stats.PredecodeMisses {
		t.Fatalf("hit rate too low: %d hits / %d misses",
			c1.Stats.PredecodeHits, c1.Stats.PredecodeMisses)
	}

	cfg.PredecodeCache = false
	c2 := runCore(t, cfg, src)
	if c2.Stats.PredecodeHits != 0 || c2.Stats.PredecodeMisses != 0 {
		t.Fatal("disabled cache must not count")
	}
	if c.ExitCode != c1.ExitCode || c.ExitCode != c2.ExitCode {
		t.Fatalf("cache changed architectural result: %d vs %d vs %d",
			c.ExitCode, c1.ExitCode, c2.ExitCode)
	}
	if c.Stats.Cycles != c1.Stats.Cycles {
		t.Fatalf("superblock replay changed timing: %d vs %d cycles",
			c.Stats.Cycles, c1.Stats.Cycles)
	}
}

// BenchmarkSimCycle measures host nanoseconds per simulated cycle with the
// predecode cache on and off — the reduced ns/simulated-cycle with the cache
// on is the acceptance measure for the fetch-path optimization.
func BenchmarkSimCycle(b *testing.B) {
	src := `
_start:
    li   t0, 50000
    li   a0, 0
loop:
    addi a0, a0, 3
    xor  a1, a1, a0
    slli t1, a0, 2
    add  a1, a1, t1
    andi t2, a1, 255
    add  a0, a0, t2
    addi t0, t0, -1
    bnez t0, loop
    li   a7, 93
    ecall
`
	prog, err := asm.Assemble(src, asm.Options{Base: 0x1000, Compress: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name           string
		predec, sb, ff bool
	}{
		{"fastpath", true, true, true}, // the shipped default
		{"nofastforward", true, true, false},
		{"nosuperblock", true, false, false},
		{"nodecodecache", false, false, false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := XT910Config()
			cfg.PredecodeCache = mode.predec
			cfg.PredecodeSuperblock = mode.sb
			cfg.FastForward = mode.ff
			b.ReportAllocs()
			var cycles uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, memory := buildCore(cfg)
				prog.LoadInto(memory)
				c.Reset(prog.Entry, 0x80000)
				c.Run(100_000_000)
				if !c.Halted {
					b.Fatal("benchmark kernel did not halt")
				}
				cycles += c.Stats.Cycles
			}
			b.StopTimer()
			if cycles > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/simcycle")
			}
		})
	}
}
