package prefetch

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"xt910/internal/mem"
)

// recordSink collects issued prefetches.
type recordSink struct {
	l1, l2 []uint64
	tlb    []uint64
}

func (r *recordSink) PrefetchL1(addr uint64, now uint64) { r.l1 = append(r.l1, addr) }
func (r *recordSink) PrefetchL2(addr uint64, now uint64) { r.l2 = append(r.l2, addr) }
func (r *recordSink) PrefetchTLB(va uint64)              { r.tlb = append(r.tlb, va) }

func trainSequential(e *Engine, base uint64, stride int64, n int) {
	for i := 0; i < n; i++ {
		e.Train(uint64(int64(base)+stride*int64(i)), uint64(i*4))
	}
}

func TestStrideDetectionAndIssue(t *testing.T) {
	sink := &recordSink{}
	e := New(Config{Mode: ModeGlobal, L1Enable: true, L2Enable: true}, sink)
	trainSequential(e, 0x10000, 64, 10)
	if len(sink.l1) == 0 {
		t.Fatal("sequential stream must trigger L1 prefetches")
	}
	// issued lines must be ahead of the demand stream
	for _, a := range sink.l1 {
		if a <= 0x10000 {
			t.Fatalf("prefetch %#x behind the stream", a)
		}
	}
}

func TestNoIssueWhenOff(t *testing.T) {
	sink := &recordSink{}
	e := New(Config{Mode: ModeOff}, sink)
	trainSequential(e, 0x10000, 64, 100)
	if len(sink.l1)+len(sink.l2)+len(sink.tlb) != 0 {
		t.Fatal("disabled prefetcher must stay silent")
	}
}

func TestLargeDistanceRunsFurtherAhead(t *testing.T) {
	far := func(large bool) uint64 {
		sink := &recordSink{}
		e := New(Config{Mode: ModeGlobal, L1Enable: true, L2Enable: true,
			LargeDistance: large}, sink)
		trainSequential(e, 0x10000, 64, 8)
		max := uint64(0)
		for _, a := range append(sink.l1, sink.l2...) {
			if a > max {
				max = a
			}
		}
		return max
	}
	if far(true) <= far(false) {
		t.Fatalf("large distance must reach further: %#x vs %#x", far(true), far(false))
	}
}

func TestArbitraryStrides(t *testing.T) {
	for _, stride := range []int64{8, 64, 256, 1024, -64} {
		sink := &recordSink{}
		e := New(Config{Mode: ModeGlobal, L1Enable: true}, sink)
		trainSequential(e, 0x100000, stride, 10)
		if len(sink.l1) == 0 {
			t.Fatalf("stride %d not detected", stride)
		}
		// direction must follow the stride
		last := sink.l1[len(sink.l1)-1]
		if stride > 0 && last < 0x100000 {
			t.Fatalf("stride %d prefetched backwards", stride)
		}
		if stride < 0 && last > 0x100000 {
			t.Fatalf("stride %d prefetched forwards", stride)
		}
	}
}

func TestMultiStreamTracksEightStreams(t *testing.T) {
	sink := &recordSink{}
	e := New(Config{Mode: ModeMultiStream, L1Enable: true}, sink)
	// interleave 8 streams at widely separated bases
	for round := 0; round < 12; round++ {
		for s := 0; s < 8; s++ {
			base := uint64(s+1) << 24
			e.Train(base+uint64(round*64), uint64(round*8))
		}
	}
	if e.ActiveStreams() != 8 {
		t.Fatalf("active streams = %d, want 8", e.ActiveStreams())
	}
	if len(sink.l1) == 0 {
		t.Fatal("interleaved streams must still prefetch")
	}
}

func TestConfidenceThrottlesRandomPattern(t *testing.T) {
	sink := &recordSink{}
	e := New(Config{Mode: ModeGlobal, L1Enable: true}, sink)
	// pseudo-random addresses: no stable stride, prefetcher must stay quiet
	addr := uint64(0x5000)
	for i := 0; i < 200; i++ {
		addr = addr*6364136223846793005 + 1442695040888963407
		e.Train(addr&0xFFFFFF, uint64(i*4))
	}
	if len(sink.l1) > 20 {
		t.Fatalf("random pattern should be throttled, issued %d", len(sink.l1))
	}
	if e.Stats.Throttled == 0 {
		t.Fatal("confidence control should have engaged")
	}
}

func TestTLBPrefetchAtPageBoundary(t *testing.T) {
	sink := &recordSink{}
	e := New(Config{Mode: ModeGlobal, L1Enable: true, L2Enable: true,
		TLBPrefetch: true, LargeDistance: true}, sink)
	trainSequential(e, 0x10000, 64, 80) // sweeps across page boundaries
	if len(sink.tlb) == 0 {
		t.Fatal("cross-page stream must issue TLB prefetches")
	}
	// prefetched pages must be page-aligned and ahead
	for _, va := range sink.tlb {
		if va%4096 != 0 {
			t.Fatalf("TLB prefetch %#x not page aligned", va)
		}
	}
}

func TestL2OnlyConfiguration(t *testing.T) {
	sink := &recordSink{}
	e := New(Config{Mode: ModeGlobal, L2Enable: true}, sink)
	trainSequential(e, 0x10000, 64, 10)
	if len(sink.l1) != 0 {
		t.Fatal("L1 disabled but L1 prefetches issued")
	}
	if len(sink.l2) == 0 {
		t.Fatal("L2 prefetches expected")
	}
}

func TestFlushForgetsStreams(t *testing.T) {
	sink := &recordSink{}
	e := New(DefaultConfig(), sink)
	trainSequential(e, 0x10000, 64, 10)
	e.Flush()
	if e.ActiveStreams() != 0 {
		t.Fatal("flush must clear stream state")
	}
}

func TestNoDuplicateLines(t *testing.T) {
	sink := &recordSink{}
	e := New(Config{Mode: ModeGlobal, L1Enable: true, L2Enable: true}, sink)
	trainSequential(e, 0x10000, 64, 50)
	seen := map[uint64]int{}
	for _, a := range append(sink.l1, sink.l2...) {
		seen[a]++
	}
	for a, n := range seen {
		if n > 2 { // allow an L1/L2 overlap but not repeated spam
			t.Fatalf("line %#x prefetched %d times", a, n)
		}
	}
}

// walkIssue is issue without firstUncovered: every target walked, the
// covered prefix skipped one by one.
func walkIssue(e *Engine, s *stream, addr, now uint64) {
	l1Depth, l2Depth := e.depths()
	const line = mem.LineSize
	stride := s.stride
	step := stride
	if absI(step) < line {
		if step > 0 {
			step = line
		} else {
			step = -line
		}
	}
	emitRange := func(depth int, cursor *uint64, toL1 bool) {
		for i := 1; i <= depth; i++ {
			lineAddr := uint64(int64(addr)+step*int64(i)) &^ uint64(line-1)
			if *cursor != 0 && sameDirectionCovered(stride, lineAddr, *cursor) {
				continue
			}
			if toL1 {
				e.sink.PrefetchL1(lineAddr, now)
				e.Stats.L1Issued++
			} else {
				e.sink.PrefetchL2(lineAddr, now)
				e.Stats.L2Issued++
			}
			*cursor = lineAddr
			if e.cfg.TLBPrefetch && crossesPage(lineAddr) {
				e.sink.PrefetchTLB(nextPage(lineAddr, stride))
				e.Stats.TLBIssued++
			}
		}
	}
	if e.cfg.L1Enable {
		emitRange(l1Depth, &s.lastL1, true)
	}
	if e.cfg.L2Enable {
		emitRange(l2Depth, &s.lastL2, false)
	}
}

// TestIssueMatchesTheWalk: starting at the first uncovered target issues
// exactly what walking every target does — the same lines in the same order
// to each destination, the same TLB requests, cursors and counts — for random
// addresses (wrapping ones included), strides below a line, at one, between
// multiples and beyond, in both directions, and cursors that are unset, behind
// the targets, among them and past them.
func TestIssueMatchesTheWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	strides := []int64{1, 8, 63, 64, 65, 100, 192, 4096, 5000, 1 << 40}
	for n := 0; n < 50000; n++ {
		cfg := DefaultConfig()
		if rng.Intn(2) == 0 {
			cfg.Mode = ModeGlobal
		}
		cfg.LargeDistance = rng.Intn(4) != 0
		stride := strides[rng.Intn(len(strides))]
		if rng.Intn(2) == 0 {
			stride = -stride
		}
		var addr uint64
		switch rng.Intn(3) {
		case 0:
			addr = rng.Uint64()
		case 1:
			addr = uint64(rng.Intn(1 << 16)) // targets may wrap below zero
		default:
			addr = math.MaxUint64 - uint64(rng.Intn(1<<16)) // or past the top
		}
		cursor := func() uint64 {
			var c uint64
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				c = rng.Uint64()
			default: // among the targets, or just either side of them
				c = uint64(int64(addr) + stride*int64(rng.Intn(80)-8) + int64(rng.Intn(256)-128))
			}
			return c &^ (mem.LineSize - 1)
		}
		s := stream{valid: true, lastAddr: addr, stride: stride, confidence: confidenceArm,
			lastL1: cursor(), lastL2: cursor()}
		want, got := s, s
		wantSink, gotSink := &recordSink{}, &recordSink{}
		walk, fast := New(cfg, wantSink), New(cfg, gotSink)
		walkIssue(walk, &want, addr, 9)
		fast.issue(&got, addr, 9)
		if got != want || fast.Stats != walk.Stats || !slices.Equal(gotSink.l1, wantSink.l1) ||
			!slices.Equal(gotSink.l2, wantSink.l2) || !slices.Equal(gotSink.tlb, wantSink.tlb) {
			t.Fatalf("addr %#x stride %d cursors %#x/%#x: issue gave %+v %+v, the walk %+v %+v",
				addr, stride, s.lastL1, s.lastL2, got, fast.Stats, want, walk.Stats)
		}
	}
}
