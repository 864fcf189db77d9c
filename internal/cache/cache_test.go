package cache

import (
	"math/rand"
	"testing"
)

func cfg32k() Config {
	return Config{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, HitLatency: 2, Parity: true}
}

func TestFillAndLookup(t *testing.T) {
	c := New(cfg32k())
	if c.Lookup(0x1000) != nil {
		t.Fatal("empty cache must miss")
	}
	c.Fill(0x1000, Exclusive, 10, false)
	l := c.Lookup(0x1040 - 1) // same 64B line as 0x1000
	if l == nil || l.State != Exclusive || l.ReadyAt != 10 {
		t.Fatalf("lookup after fill: %+v", l)
	}
	if c.Lookup(0x1040) != nil {
		t.Fatal("next line must miss")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(Config{SizeBytes: 4 * 64, Ways: 4, LineBytes: 64, HitLatency: 1})
	// one set of 4 ways: fill 4 lines mapping to set 0
	for i := 0; i < 4; i++ {
		c.Fill(uint64(i)*64*1, Exclusive, 0, false) // sets = 1, all collide
	}
	// touch line 0 so line 1 becomes LRU
	c.Touch(c.Lookup(0))
	c.Fill(4*64, Exclusive, 0, false)
	if c.Lookup(0) == nil {
		t.Fatal("recently used line evicted")
	}
	if c.Lookup(64) != nil {
		t.Fatal("LRU line should have been evicted")
	}
}

func TestDirtyWritebackOnEvict(t *testing.T) {
	c := New(Config{SizeBytes: 64, Ways: 1, LineBytes: 64, HitLatency: 1})
	c.Fill(0, Modified, 0, false)
	_, had, wb := c.Fill(64, Exclusive, 0, false)
	if !had || !wb {
		t.Fatalf("evicting a Modified line must write back (had=%v wb=%v)", had, wb)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats.Writebacks)
	}
}

func TestPrefetchAccounting(t *testing.T) {
	c := New(cfg32k())
	c.Fill(0x2000, Shared, 100, true)
	if c.Stats.PrefetchFills != 1 {
		t.Fatal("prefetch fill not counted")
	}
	l := c.Lookup(0x2000)
	c.Touch(l)
	if c.Stats.PrefetchUseful != 1 || l.Prefetched {
		t.Fatal("demand hit on prefetched line must count as useful")
	}
	// wasted prefetch: fill and evict unused
	small := New(Config{SizeBytes: 64, Ways: 1, LineBytes: 64, HitLatency: 1})
	small.Fill(0, Shared, 0, true)
	small.Fill(64, Shared, 0, false)
	if small.Stats.PrefetchWasted != 1 {
		t.Fatal("evicted unused prefetch must count as wasted")
	}
}

func TestInFlightFillMerge(t *testing.T) {
	c := New(cfg32k())
	c.Fill(0x3000, Exclusive, 500, false) // fill completes at cycle 500
	l := c.Lookup(0x3000)
	if l.ReadyAt != 500 {
		t.Fatal("readyAt lost")
	}
}

func TestParityAndECC(t *testing.T) {
	c := New(cfg32k())
	c.Fill(0x4000, Exclusive, 0, false)
	if !c.VerifyParity(0x4000) {
		t.Fatal("fresh line must pass parity")
	}
	if !c.InjectParityError(0x4000) {
		t.Fatal("inject failed")
	}
	if c.VerifyParity(0x4000) {
		t.Fatal("corrupted line must fail parity")
	}
	if c.Stats.ParityErrors != 1 {
		t.Fatal("parity error not counted")
	}
	// ECC corrects
	e := New(Config{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, HitLatency: 2, Parity: true, ECC: true})
	e.Fill(0x4000, Exclusive, 0, false)
	e.InjectParityError(0x4000)
	if !e.VerifyParity(0x4000) {
		t.Fatal("ECC must correct the error")
	}
	if e.Stats.ECCCorrected != 1 {
		t.Fatal("correction not counted")
	}
}

func TestInvalidateAllAndCleanAll(t *testing.T) {
	c := New(cfg32k())
	for i := 0; i < 16; i++ {
		c.Fill(uint64(i)*64, Modified, 0, false)
	}
	if n := c.CleanAll(); n != 16 {
		t.Fatalf("cleaned %d lines, want 16", n)
	}
	if c.CleanAll() != 0 {
		t.Fatal("second clean should find nothing dirty")
	}
	c.InvalidateAll()
	for i := 0; i < 16; i++ {
		if c.Lookup(uint64(i)*64) != nil {
			t.Fatal("line survived invalidate-all")
		}
	}
}

func TestSetIndexDisjoint(t *testing.T) {
	// property: two addresses in different sets never evict each other
	c := New(Config{SizeBytes: 8 << 10, Ways: 2, LineBytes: 64, HitLatency: 1})
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 1000; trial++ {
		a := uint64(rng.Intn(1 << 20))
		c.Fill(a, Exclusive, 0, false)
		if c.Lookup(a) == nil {
			t.Fatal("just-filled line must be present")
		}
	}
}

func TestMissRateCounters(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("idle miss rate must be 0")
	}
	s.Accesses, s.Misses = 10, 3
	if s.MissRate() != 0.3 {
		t.Fatalf("miss rate = %f", s.MissRate())
	}
}

// zeroLines reports whether every line is in the state make leaves it in.
func zeroLines(lines []Line) bool {
	for i := range lines {
		if lines[i] != (Line{}) {
			return false
		}
	}
	return true
}

// TestReleaseZeroesLines: whatever a run did to the line array, Release hands
// it on all zero — through the fill log when the run was short, through one
// clear when the log overflowed, and for a line a caller took from Victim and
// wrote itself, as the fault injector may, with no Fill at all.
func TestReleaseZeroesLines(t *testing.T) {
	dirty := func(c *Cache, fills int) {
		rng := rand.New(rand.NewSource(int64(fills)))
		for i := 0; i < fills; i++ {
			addr := uint64(rng.Intn(1<<20)) &^ 63
			c.Fill(addr, Modified, uint64(i), i%3 == 0)
			if l := c.Lookup(addr); l != nil {
				c.Touch(l)
				l.Dirty = true
			}
			if i%7 == 0 {
				c.Invalidate(addr)
			}
		}
	}
	for _, tc := range []struct {
		name  string
		fills int
	}{
		{"untouched", 0},
		{"one fill", 1},
		{"log exactly full", fillLogSize},
		{"log overflowed by one", fillLogSize + 1},
		{"kernel-sized", 20 * fillLogSize},
	} {
		c := New(cfg32k())
		dirty(c, tc.fills)
		if (c.nFilled > len(c.filled)) != (tc.fills > fillLogSize) {
			t.Fatalf("%s: %d fills logged as %d", tc.name, tc.fills, c.nFilled)
		}
		lines := c.lines
		c.Release()
		if !zeroLines(lines) {
			t.Errorf("%s: Release left a line behind", tc.name)
		}
	}

	c := New(cfg32k())
	*c.Victim(0x4040) = Line{Valid: true, Tag: 0x4040 >> 6, State: Owned, Dirty: true, LRU: 9}
	c.Lookup(0x4040).parity ^= 1
	lines := c.lines
	c.Release()
	if !zeroLines(lines) {
		t.Error("Release left a line behind that was written through Victim without a Fill")
	}
}

// TestRecycledCacheIsFresh: a cache built after another of the same geometry
// was released behaves as one built first.
func TestRecycledCacheIsFresh(t *testing.T) {
	run := func() (Stats, []uint64) {
		c := New(cfg32k())
		defer c.Release()
		rng := rand.New(rand.NewSource(7))
		var evictions []uint64
		for i := 0; i < 3000; i++ {
			addr := uint64(rng.Intn(1<<18)) &^ 63
			c.Stats.Accesses++
			if l := c.Lookup(addr); l != nil {
				c.Touch(l)
				continue
			}
			c.Stats.Misses++
			if ev, had, _ := c.Fill(addr, Exclusive, uint64(i), false); had {
				evictions = append(evictions, ev)
			}
		}
		return c.Stats, evictions
	}
	wantStats, wantEv := run()
	for i := 0; i < 3; i++ {
		gotStats, gotEv := run()
		if gotStats != wantStats || len(gotEv) != len(wantEv) {
			t.Fatalf("run %d on a recycled array: %+v, first run %+v", i, gotStats, wantStats)
		}
		for j := range gotEv {
			if gotEv[j] != wantEv[j] {
				t.Fatalf("run %d on a recycled array evicts %#x at %d, first run %#x", i, gotEv[j], j, wantEv[j])
			}
		}
	}
}
