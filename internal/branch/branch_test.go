package branch

import (
	"math/rand"
	"testing"
)

func TestDirectionLearnsBias(t *testing.T) {
	p := NewDirectionPredictor(12)
	pc := uint64(0x1000)
	for i := 0; i < 100; i++ {
		pred, idx := p.Predict(pc)
		p.Update(idx, true, pred)
		p.SpeculateHistory(true)
	}
	if taken, _ := p.Predict(pc); !taken {
		t.Fatal("always-taken branch must predict taken after training")
	}
}

func TestDirectionLearnsAlternating(t *testing.T) {
	// gshare uses global history, so a strict alternating pattern becomes
	// predictable once history differentiates the two cases.
	p := NewDirectionPredictor(12)
	pc := uint64(0x2000)
	correct := 0
	taken := false
	for i := 0; i < 400; i++ {
		taken = !taken
		pred, idx := p.Predict(pc)
		if pred == taken {
			correct++
		}
		p.Update(idx, taken, pred)
		p.SpeculateHistory(taken)
	}
	if correct < 300 {
		t.Fatalf("alternating pattern should be learned via history: %d/400", correct)
	}
}

func TestTwoLevelBufferBypass(t *testing.T) {
	p := NewDirectionPredictor(12)
	// consecutive predictions in adjacent "cycles" exercise BUF1/BUF2
	for i := 0; i < 50; i++ {
		pred, _ := p.Predict(0x4000)
		p.SpeculateHistory(pred)
		pred2, _ := p.Predict(0x4010) // the prefetched next line
		p.SpeculateHistory(pred2)
	}
	if p.Stats.BufBypass == 0 {
		t.Fatal("adjacent-line predictions should hit the prefetch buffers")
	}
}

func TestBTBInsertLookupLRU(t *testing.T) {
	l0 := NewBTB(16, 16) // fully associative
	for i := 0; i < 16; i++ {
		l0.Insert(uint64(0x1000+i*4), uint64(0x2000+i*4))
	}
	if _, ok := l0.Lookup(0x1000); !ok {
		t.Fatal("entry should be present")
	}
	// touch all but 0x1004, then insert a 17th: 0x1004 must be evicted
	for i := 0; i < 16; i++ {
		if i != 1 {
			l0.Lookup(uint64(0x1000 + i*4))
		}
	}
	l0.Insert(0x9000, 0xA000)
	if _, ok := l0.Lookup(0x1004); ok {
		t.Fatal("LRU entry should have been evicted")
	}
	if e, ok := l0.Lookup(0x9000); !ok || e.Target() != 0xA000 {
		t.Fatal("new entry missing")
	}
}

func TestBTBUpdateExisting(t *testing.T) {
	b := NewBTB(1024, 4)
	b.Insert(0x5000, 0x6000)
	b.Insert(0x5000, 0x7000)
	e, ok := b.Lookup(0x5000)
	if !ok || e.Target() != 0x7000 {
		t.Fatal("insert must update in place")
	}
}

func TestRASMatchesCallStack(t *testing.T) {
	r := NewRAS(16)
	var model []uint64
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if rng.Intn(2) == 0 || len(model) == 0 {
			addr := uint64(rng.Intn(1 << 20))
			r.Push(addr)
			model = append(model, addr)
			if len(model) > 16 {
				model = model[1:]
			}
		} else {
			want := model[len(model)-1]
			model = model[:len(model)-1]
			if got := r.Pop(); got != want {
				t.Fatalf("step %d: pop %#x, want %#x", i, got, want)
			}
		}
	}
}

func TestRASSnapshotRestore(t *testing.T) {
	r := NewRAS(8)
	r.Push(1)
	r.Push(2)
	snap := r.Snapshot()
	r.Push(3)
	r.Pop()
	r.Pop()
	r.Restore(snap)
	if r.Depth() != 2 || r.Pop() != 2 || r.Pop() != 1 {
		t.Fatal("restore must rewind the stack")
	}
}

// TestRASSnapshotImmutable checks a snapshot keeps the contents it was taken
// with through later pushes, pops, overflow shifts and restores of the stack
// it came from — snapshots share storage, so none of those may write to it.
func TestRASSnapshotImmutable(t *testing.T) {
	r := NewRAS(4)
	rng := rand.New(rand.NewSource(7))
	type held struct {
		snap RASSnapshot
		want []uint64
	}
	var snaps []held
	var model []uint64
	for i := 0; i < 2000; i++ {
		switch op := rng.Intn(4); {
		case op == 0 && len(snaps) > 0:
			h := snaps[rng.Intn(len(snaps))]
			r.Restore(h.snap)
			model = append(model[:0], h.want...)
		case op == 1:
			r.Pop()
			if len(model) > 0 {
				model = model[:len(model)-1]
			}
		default:
			addr := uint64(rng.Intn(6)) // few values: contents recur and intern
			r.Push(addr)
			if model = append(model, addr); len(model) > 4 {
				model = model[1:]
			}
		}
		snaps = append(snaps, held{r.Snapshot(), append([]uint64(nil), model...)})
	}
	for i, h := range snaps {
		r.Restore(h.snap)
		if r.Depth() != len(h.want) {
			t.Fatalf("snapshot %d: depth %d, want %d", i, r.Depth(), len(h.want))
		}
		for j := len(h.want) - 1; j >= 0; j-- {
			if got := r.Pop(); got != h.want[j] {
				t.Fatalf("snapshot %d: entry %d = %#x, want %#x", i, j, got, h.want[j])
			}
		}
	}
}

// TestRASSnapshotSteadyStateAllocs checks that a loop revisiting the same
// call stacks snapshots them without allocating once each has been seen.
func TestRASSnapshotSteadyStateAllocs(t *testing.T) {
	r := NewRAS(16)
	var sink RASSnapshot
	loop := func() {
		for site := uint64(0); site < 4; site++ {
			sink = r.Snapshot() // a branch in the caller
			r.Push(0x1000 + site*8)
			sink = r.Snapshot() // a branch in the callee
			r.Pop()
		}
	}
	loop()
	if allocs := testing.AllocsPerRun(100, loop); allocs != 0 {
		t.Errorf("%v allocations per iteration, want 0", allocs)
	}
	_ = sink
}

func TestIndirectPredictor(t *testing.T) {
	p := NewIndirectPredictor(10)
	if _, ok := p.Predict(0x1000, 0); ok {
		t.Fatal("untrained must miss")
	}
	p.Update(0x1000, 0, 0x4000)
	p.Update(0x1000, 5, 0x5000)
	if tgt, ok := p.Predict(0x1000, 0); !ok || tgt != 0x4000 {
		t.Fatal("history 0 target")
	}
	if tgt, ok := p.Predict(0x1000, 5); !ok || tgt != 0x5000 {
		t.Fatal("history-differentiated target")
	}
}

func TestLoopBufferCapture(t *testing.T) {
	l := NewLoopBuffer()
	branch, head := uint64(0x1020), uint64(0x1000)
	for i := 0; i < trainThreshold; i++ {
		l.Observe(branch, head, 8)
	}
	if !l.Active() {
		t.Fatal("loop should be captured after repeated taken backward branch")
	}
	if !l.Covers(0x1008) || !l.Covers(head) || !l.Covers(branch) {
		t.Fatal("body PCs must be covered")
	}
	if l.Covers(0x1024) {
		t.Fatal("PC past the loop must not be covered")
	}
	l.Exit()
	if l.Active() {
		t.Fatal("exit must deactivate")
	}
}

func TestLoopBufferRejectsBigBodies(t *testing.T) {
	l := NewLoopBuffer()
	for i := 0; i < 10; i++ {
		l.Observe(0x2000, 0x1000, 100) // body of 100 > 16 entries
	}
	if l.Active() {
		t.Fatal("oversized loop must not be captured")
	}
}

func TestLoopBufferFlushOnContextSwitch(t *testing.T) {
	l := NewLoopBuffer()
	for i := 0; i < trainThreshold; i++ {
		l.Observe(0x1020, 0x1000, 8)
	}
	l.Flush()
	if l.Active() || l.Covers(0x1008) {
		t.Fatal("flush must clear the captured loop (§III-C)")
	}
}

// TestReleaseZeroesPredictorTables: Release hands the BTB entries and the
// direction counters on all zero, and the constructors that pick them up
// build the tables they always built.
func TestReleaseZeroesPredictorTables(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBTB(1024, 4)
	p := NewDirectionPredictor(14)
	for i := 0; i < 20000; i++ {
		pc := uint64(rng.Intn(1<<16)) &^ 1
		b.Insert(pc, pc+64)
		b.Lookup(pc)
		pred, idx := p.Predict(pc)
		p.Update(idx, i%2 == 0, pred)
		p.SpeculateHistory(i%2 == 0)
	}
	entries, table := b.entries, p.table
	b.Release()
	p.Release()
	for i := range entries {
		if entries[i] != (BTBEntry{}) {
			t.Fatalf("BTB.Release left entry %d behind: %+v", i, entries[i])
		}
	}
	for i, ctr := range table {
		if ctr != 0 {
			t.Fatalf("DirectionPredictor.Release left counter %d at %d", i, ctr)
		}
	}
	if _, ok := NewBTB(1024, 4).Lookup(0x1000); ok {
		t.Fatal("a BTB built after a release must start empty")
	}
	for i, ctr := range NewDirectionPredictor(14).table {
		if ctr != 1 {
			t.Fatalf("a predictor built after a release starts counter %d at %d, want weakly not-taken", i, ctr)
		}
	}
}
