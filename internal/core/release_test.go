package core

import (
	"reflect"
	"testing"

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

// TestResetDropsDecodesOnlyOnceStepped: Reset on a core fresh from New has
// nothing to drop; on a core that has stepped it still empties both decode
// tables, because the program may have been replaced behind it.
func TestResetDropsDecodesOnlyOnceStepped(t *testing.T) {
	p, err := workloads.CoreMark.Program(1, true)
	if err != nil {
		t.Fatal(err)
	}
	c, memory := buildCore(XT910Config())
	p.LoadInto(memory)
	c.Reset(p.Entry, 0x400000)
	c.Run(2000)
	live := func() (n int) {
		for _, tag := range c.predec.tag {
			if tag != 0 {
				n++
			}
		}
		for i := range c.sblk.blk {
			if c.sblk.blk[i].tag != 0 {
				n++
			}
		}
		return n
	}
	if live() == 0 {
		t.Fatal("2000 cycles must have decoded something")
	}
	c.Reset(p.Entry, 0x400000)
	if n := live(); n != 0 {
		t.Fatalf("Reset on a stepped core left %d decoded entries", n)
	}
}
