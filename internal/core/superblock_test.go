package core

import "testing"

func TestSuperblockUnit(t *testing.T) {
	in4 := asmInstForTest(t, "addi a0, a0, 2")

	b := &sbBlock{tag: 0x1000 | 1}
	for i := 0; i < sbMaxInsts+2; i++ {
		b.add(0x00250513, &in4)
	}
	if b.n != sbMaxInsts {
		t.Fatalf("a block took %d instructions, want at most %d", b.n, sbMaxInsts)
	}

	s := newSuperblockCache()
	s.insert(b)
	got := s.lookup(0x1000)
	if got == nil || got.n != b.n || got.raw != b.raw || got.insts != b.insts {
		t.Fatal("insert/lookup round trip failed")
	}
	if s.lookup(0x1004) != nil {
		t.Fatal("interior address must not hit: blocks are keyed by entry PA")
	}
	s.insert(&sbBlock{tag: 0x2000 | 1})
	if s.lookup(0x2000) != nil {
		t.Fatal("an empty walk must not be cached")
	}
}

// TestSuperblockSelfModifyingCode re-runs the SMC programs with superblocks
// explicitly on and off: a committed store over a cached block's interior
// must stop its replay there, with and without fence.i.
func TestSuperblockSelfModifyingCode(t *testing.T) {
	for _, enabled := range []bool{true, false} {
		cfg := XT910Config()
		cfg.PredecodeSuperblock = enabled
		c := runCore(t, cfg, selfModifyingProgram)
		if c.ExitCode != 3 {
			t.Fatalf("superblock=%v: exit = %d, want 3 (stale replay served?)", enabled, c.ExitCode)
		}
		c2 := runCore(t, cfg, smcNoFenceProgram)
		c3cfg := cfg
		c3cfg.PredecodeCache = false
		c3cfg.PredecodeSuperblock = false
		c3 := runCore(t, c3cfg, smcNoFenceProgram)
		if c2.ExitCode != c3.ExitCode {
			t.Fatalf("superblock=%v changed architectural behaviour: %d vs %d",
				enabled, c2.ExitCode, c3.ExitCode)
		}
	}
}
