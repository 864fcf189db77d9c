package core

import (
	"testing"

	"xt910/internal/asm"
	"xt910/internal/mem"
)

func TestPredecodeUnit(t *testing.T) {
	p := newPredecode()
	in4 := asmInstForTest(t, "addi a0, a0, 2")
	const raw = 0x00250513 // addi a0, a0, 2
	p.insert(0x1000, raw, &in4)
	if got := p.lookup(0x1000, raw); got == nil || *got != in4 {
		t.Fatal("insert/lookup round trip failed")
	}
	if p.lookup(0x1002, raw) != nil {
		t.Fatal("neighbouring granule must miss")
	}
	if p.lookup(0x1000, raw+1<<20) != nil {
		t.Fatal("an entry must not serve a word it was not cracked from")
	}
	p.insert(0x1011, raw, &in4)
	if p.lookup(0x1011, raw) != nil {
		t.Fatal("a misaligned fetch must not be cached")
	}
}

// TestPredecodeWrapBoundary: at the top of the address space, where a 32-bit
// instruction on the last halfword continues at address 0, an entry serves
// only while every byte it was cracked from is unchanged — a write on either
// side of the wrap, through no store path at all, retires it.
func TestPredecodeWrapBoundary(t *testing.T) {
	c, memory := buildCore(XT910Config())
	addi := func(imm uint32) uint32 { return 0x00050513 | imm<<20 } // addi a0, a0, imm
	decode := func(pa uint64, want uint32, hit bool) {
		t.Helper()
		hits := c.Stats.PredecodeHits
		var got sinst
		if raw, ok := c.decodeAt(pa, &got); !ok || raw != want || got != crackWord(want) {
			t.Fatalf("decodeAt(%#x) = %#x, %v; want %#x decoded afresh", pa, raw, ok, want)
		}
		if (c.Stats.PredecodeHits > hits) != hit {
			t.Fatalf("decodeAt(%#x): predecode hit = %v, want %v", pa, !hit, hit)
		}
	}
	top := ^uint64(0) - 3 // the last 4-byte slot
	memory.Write(top, 4, uint64(addi(1)))
	decode(top, addi(1), false)
	decode(top, addi(1), true)
	memory.Write(top+2, 4, uint64(addi(3)>>16|0x1234<<16)) // wraps to address 0
	decode(top, addi(3), false)

	memory.Write(top+2, 4, uint64(addi(5))) // straddles the wrap
	decode(top+2, addi(5), false)
	decode(top+2, addi(5), true)
	memory.Write(0, 2, uint64(addi(7)>>16)) // only its upper half
	decode(top+2, addi(7), false)
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
	if _, ok := c.decodeAt(0x1000, &got); !ok {
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

// TestPredecodeSelfModifyingNoFence: without fence.i the model picks up the
// committed store or not as fetch timing decides, and the cache cannot change
// which, because an entry serves only while memory holds its word.
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

// decodeCacheLoop runs its six-instruction body 400 times; the fuzz target
// below rewrites one body word while the loop is running.
const decodeCacheLoop = `
_start:
    li   t0, 400
    li   a0, 0
loop:
    addi a0, a0, 3
    xor  a1, a1, a0
    slli t1, a0, 2
    add  a1, a1, t1
    addi t0, t0, -1
    bnez t0, loop
    li   a7, 93
    ecall
`

// FuzzDecodeCache: run the loop for warm cycles with predecode and
// superblocks on, rewrite one body word straight through memory — no store,
// no hook, no fence.i, no Reset — and resume. Every instruction fetched from
// then on must be cracked from the word memory holds at its pc: a decode
// cache that serves the old word fails. inject flips bit bit of the slot
// through InjectMemBit, the fault campaign's memory channel, instead of
// writing word.
func FuzzDecodeCache(f *testing.F) {
	f.Add(uint16(300), uint8(0), uint32(0x00550513), false, uint8(0)) // addi a0, a0, 5
	f.Add(uint16(500), uint8(4), uint32(0x00000013), false, uint8(0)) // the counter's addi becomes a nop
	f.Add(uint16(400), uint8(1), uint32(0x4505), false, uint8(0))     // c.li a0, 1 over the xor
	f.Add(uint16(300), uint8(0), uint32(0), true, uint8(21))          // flips the addi's immediate
	prog, err := asm.Assemble(decodeCacheLoop, asm.Options{Base: 0x1000})
	if err != nil {
		f.Fatal(err)
	}
	loop := prog.Symbols["loop"]
	f.Fuzz(func(t *testing.T, warm uint16, slot uint8, word uint32, inject bool, bit uint8) {
		c, memory := buildCore(XT910Config())
		prog.LoadInto(memory)
		c.Reset(prog.Entry, 0x80000)
		for i := 0; i < int(warm%2000) && !c.Halted; i++ {
			c.Step()
		}
		pa := loop + 4*uint64(slot%6)
		if inject {
			c.InjectMemBit(pa+uint64(bit/8%4), uint(bit))
		} else {
			memory.Write(pa, 4, uint64(word))
		}
		for from := c.now; c.now < from+1000 && !c.Halted; {
			c.Step()
			for i := 0; i < c.fq.len(); i++ {
				e := c.fq.at(i)
				if e.readyAt-uint64(e.fetchLag) != c.now-1 {
					continue // fetched before this cycle
				}
				raw := memWord(memory, e.pc)
				if e.sinst != crackWord(raw) {
					t.Fatalf("cycle %d: fetch at %#x gave %v; memory holds %#x, which decodes to %v",
						c.now-1, e.pc, e.inst, raw, crackWord(raw).inst)
				}
			}
		}
	})
}

// memWord is the instruction word memory holds at pa, read without the core's
// reader.
func memWord(memory *mem.Memory, pa uint64) uint32 {
	w := uint32(memory.Read(pa, 4))
	if w&3 != 3 {
		w &= 0xFFFF
	}
	return w
}
