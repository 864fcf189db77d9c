package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"xt910/internal/asm"
	"xt910/internal/cache"
	"xt910/internal/coherence"
	"xt910/internal/mem"
	"xt910/internal/workloads"
)

// TestReleaseRestoresConstructorState: after a kernel ran on it, a released
// core's rings are all zero and every tag of its predecode and superblock
// tables is free — the state newRing, newPredecode and newSuperblockCache
// hand out — and a core built on what it released runs the kernel to the
// same Stats.
func TestReleaseRestoresConstructorState(t *testing.T) {
	p, err := workloads.CoreMark.Program(2, true)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Core {
		c, memory := buildCore(XT910Config())
		p.LoadInto(memory)
		c.Reset(p.Entry, 0x400000)
		c.Run(50_000_000)
		if !c.Halted {
			t.Fatal("kernel did not halt")
		}
		return c
	}
	c := run()
	want := c.Stats
	if c.Stats.PredecodeHits == 0 || c.Stats.SuperblockHits == 0 {
		t.Fatal("the run must have filled both decode tables")
	}
	rob, fq, lq, sq := c.robQ.buf, c.fq.buf, c.lq.buf, c.sq.buf
	predec, sblk := c.predec, c.sblk
	c.Release()
	for _, ring := range []struct {
		name string
		zero bool
	}{
		{"ROB", reflect.DeepEqual(rob, make([]uop, len(rob)))},
		{"IBUF", reflect.DeepEqual(fq, make([]fqEntry, len(fq)))},
		{"LQ", reflect.DeepEqual(lq, make([]lqEntry, len(lq)))},
		{"SQ", reflect.DeepEqual(sq, make([]sqEntry, len(sq)))},
	} {
		if !ring.zero {
			t.Errorf("Release left the %s ring dirty", ring.name)
		}
	}
	for i, tag := range predec.tag {
		if tag != 0 {
			t.Fatalf("Release left predecode tag %d live", i)
		}
	}
	for i := range sblk.blk {
		if sblk.blk[i].tag != 0 {
			t.Fatalf("Release left superblock %d live", i)
		}
	}
	for i := 0; i < 2; i++ {
		c := run()
		if c.Stats != want {
			t.Fatalf("run %d on recycled storage:\n got %+v\nwant %+v", i, c.Stats, want)
		}
		c.Release()
	}
}

// TestReloadDecodesNewImage: Reset leaves the decode tables as they are, and
// after another program is loaded over the one that filled them, every
// halfword of the new image decodes to what memory holds — an entry serves
// only while memory holds the word it was decoded from.
func TestReloadDecodesNewImage(t *testing.T) {
	first, err := workloads.CoreMark.Program(1, true)
	if err != nil {
		t.Fatal(err)
	}
	second, err := workloads.AIDotScalar.Program(1, true)
	if err != nil {
		t.Fatal(err)
	}
	c, memory := buildCore(XT910Config())
	first.LoadInto(memory)
	c.Reset(first.Entry, 0x400000)
	c.Run(50_000_000)
	live := func() (n int) {
		for _, tag := range c.predec.tag {
			if tag != 0 {
				n++
			}
		}
		return n
	}
	before := live()
	second.LoadInto(memory)
	c.Reset(second.Entry, 0x400000)
	if n := live(); before == 0 || n != before {
		t.Fatalf("predecode entries: %d before Reset, %d after; want the same, nonzero", before, n)
	}
	hits := c.Stats.PredecodeHits
	for pa := second.Base; pa < second.End(); pa += 2 {
		want := memWord(memory, pa)
		var got sinst
		if raw, ok := c.decodeAt(pa, &got); !ok || raw != want || got != crackWord(want) {
			t.Fatalf("decodeAt(%#x) = %#x, %v: a stale decode of the first image", pa, raw, ok)
		}
	}
	if c.Stats.PredecodeHits == hits {
		t.Fatal("no halfword of the new image hit an entry left by the first")
	}
}

// newCoreObjects bounds what a core's New/Release pair allocates once the
// free lists hold a core's tables: the measured 22 objects plus 10 %. It was
// 40 while the register file, both rename maps, the checkpoints and the
// vector units were made afresh for every core (the issue queues, empty until
// the first rename, cost nothing yet).
const newCoreObjects = 24

// TestNewReleaseAllocBudget: after a warm-up pair has filled the free lists,
// building and releasing a core allocates at most newCoreObjects objects.
func TestNewReleaseAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := XT910Config()
	memory := mem.NewMemory()
	l2 := func() *coherence.L2 {
		return coherence.NewL2(cache.Config{SizeBytes: 2 << 20, Ways: 16, LineBytes: 64, HitLatency: 10}, mem.NewDRAM())
	}
	New(cfg, 0, memory, l2()).Release() // warm-up
	for i := 0; i < 4; i++ {
		l := l2() // RegisterL1 appends to the L2's port list
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		New(cfg, 0, memory, l).Release()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n > newCoreObjects {
			t.Errorf("run %d: New/Release allocates %d objects, budget %d", i, n, newCoreObjects)
		}
	}
}

// TestIssueQueuesKeepTheirArray: a run leaves every issue queue at the
// capacity New cut it to — no append reallocated one out of the shared
// array. speclike fills the issue queues (StallIQ); the store burst, on its
// second pass with the code in the L1I, renames twenty stores of a
// DRAM-missing load's value, more st.data entries than an issue queue holds,
// which renameGates does not bound.
func TestIssueQueuesKeepTheirArray(t *testing.T) {
	cfg := XT910Config()
	spec, err := workloads.SpecLike.Program(1, true)
	if err != nil {
		t.Fatal(err)
	}
	burst, err := asm.Assemble(`
_start:
    li   s0, 2
    li   a0, 0x300000
again:
    li   a1, 0x20000
    ld   t0, 0(a0)
`+strings.Repeat("    sd   t0, 0(a1)\n    addi a1, a1, 8\n", 20)+`
    li   t1, 0x40000
    add  a0, a0, t1
    addi s0, s0, -1
    bnez s0, again
`+exitSeq, asm.Options{Base: 0x1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *asm.Program
	}{{"speclike", spec}, {"store burst", burst}} {
		c, m := buildCore(cfg)
		tc.p.LoadInto(m)
		c.Reset(tc.p.Entry, 0x400000)
		var caps [numPipes]int
		for q := range c.queues {
			caps[q] = cap(c.queues[q])
		}
		maxSTD := 0
		for !c.Halted && c.Stats.Cycles < 50_000_000 {
			c.Step()
			maxSTD = max(maxSTD, len(c.queues[pipeSTD]))
		}
		switch {
		case !c.Halted:
			t.Fatalf("%s did not halt", tc.name)
		case tc.p == spec && c.Stats.StallIQ == 0:
			t.Fatalf("speclike never filled an issue queue")
		case tc.p == burst && maxSTD <= cfg.IssueQueue:
			t.Fatalf("the store burst held at most %d st.data entries, want more than %d", maxSTD, cfg.IssueQueue)
		}
		for q := range c.queues {
			if cap(c.queues[q]) != caps[q] {
				t.Errorf("%s: %s queue capacity %d after the run, %d from New", tc.name, pipeNames[q], cap(c.queues[q]), caps[q])
			}
		}
		c.Release()
	}
}
