// Package prefetch implements the XT-910 multi-mode multi-stream data
// prefetcher (§V-C). Two modes are supported: the global mode for a single
// simple stream (any stride, depth up to 64 cache lines) and the multi-stream
// mode tracking up to 8 concurrent streams with independent strides (depth up
// to 32 lines each). Operation follows the paper's three steps: stride
// detection, policy/confidence control, and issue. Cross-page virtual
// prefetch requests a translation for the next page (TLB prefetch). Lines and
// pages are the machine's fixed mem.LineSize and mem.PageSize.
package prefetch

import "xt910/internal/mem"

// Mode selects the prefetch mode.
type Mode int

// Prefetcher modes (§V-C, Fig. 11).
const (
	ModeOff Mode = iota
	ModeGlobal
	ModeMultiStream
)

// Config controls the prefetcher, mirroring the knobs the paper sweeps in
// Fig. 21: per-destination enables and the distance setting.
type Config struct {
	Mode Mode
	// L1Enable issues prefetches that fill the L1 D-cache.
	L1Enable bool
	// L2Enable issues (deeper) prefetches that fill the shared L2.
	L2Enable bool
	// TLBPrefetch requests next-page translations at page boundaries.
	TLBPrefetch bool
	// LargeDistance selects the aggressive distance (scenario d vs b/c).
	LargeDistance bool
}

// DefaultConfig returns the full-featured configuration (scenario d).
func DefaultConfig() Config {
	return Config{
		Mode: ModeMultiStream, L1Enable: true, L2Enable: true,
		TLBPrefetch: true, LargeDistance: true,
	}
}

// Sink receives prefetch requests from the engine.
type Sink interface {
	// PrefetchL1 fills a line into the L1 D-cache.
	PrefetchL1(addr uint64, now uint64)
	// PrefetchL2 fills a line into the shared L2.
	PrefetchL2(addr uint64, now uint64)
	// PrefetchTLB warms the translation for va.
	PrefetchTLB(va uint64)
}

// Stats counts prefetcher activity.
type Stats struct {
	Trains       uint64
	L1Issued     uint64
	L2Issued     uint64
	TLBIssued    uint64
	StreamsAlloc uint64
	Throttled    uint64 // suppressed by confidence control
}

// stream is one tracked access pattern. The L1 and L2 destinations keep
// separate issue cursors: the near cursor keeps the L1 topped up at the short
// distance while the far cursor runs ahead filling the L2.
type stream struct {
	valid      bool
	lastAddr   uint64
	stride     int64
	confidence int
	lastL1     uint64 // furthest line issued toward the L1
	lastL2     uint64 // furthest line issued toward the L2
	lru        uint64
}

const (
	maxStreams     = 8
	confidenceMax  = 7
	confidenceArm  = 2 // issue prefetches at or above this confidence
	globalDepthMax = 64
	streamDepthMax = 32
)

// Engine is the prefetch unit attached to one core's load pipe.
type Engine struct {
	cfg     Config
	streams []stream
	global  stream
	tick    uint64
	Stats   Stats
	sink    Sink
}

// New builds an engine delivering into sink.
func New(cfg Config, sink Sink) *Engine {
	return &Engine{cfg: cfg, streams: make([]stream, maxStreams), sink: sink}
}

// Config returns the active configuration.
func (e *Engine) Config() Config { return e.cfg }

// depths returns (lines ahead for L1, lines ahead for L2) given the distance
// setting. The small distance keeps prefetches just ahead of the demand
// stream; the large distance runs far enough ahead to hide the ~200-cycle
// memory latency (scenario d in Fig. 21).
func (e *Engine) depths() (l1, l2 int) {
	// distances must run ahead of what the out-of-order window already
	// covers (~4 lines with a 192-entry ROB on a streaming loop), otherwise
	// prefetch merely merges with demand misses
	if e.cfg.LargeDistance {
		l1, l2 = 24, 56
	} else {
		l1, l2 = 2, 12
	}
	max := streamDepthMax
	if e.cfg.Mode == ModeGlobal {
		max = globalDepthMax
	}
	if l2 > max {
		l2 = max
	}
	return l1, l2
}

// Train observes a demand load's address and issues prefetches.
func (e *Engine) Train(addr uint64, now uint64) {
	if e.cfg.Mode == ModeOff || (!e.cfg.L1Enable && !e.cfg.L2Enable && !e.cfg.TLBPrefetch) {
		return
	}
	e.Stats.Trains++
	e.tick++
	s := e.pick(addr)
	if s == nil {
		return
	}
	delta := int64(addr) - int64(s.lastAddr)
	switch {
	case delta == 0:
		return
	case s.stride == delta:
		if s.confidence < confidenceMax {
			s.confidence++
		}
	default:
		// Step 2, confidence evaluation: a broken pattern decays confidence
		// and eventually re-trains the stride, preventing the "overly
		// aggressive prefetch" cache pollution the paper warns about.
		s.confidence--
		if s.confidence <= 0 {
			s.stride = delta
			s.confidence = 1
			s.lastL1, s.lastL2 = 0, 0
		}
		s.lastAddr = addr
		s.lru = e.tick
		e.Stats.Throttled++
		return
	}
	s.lastAddr = addr
	s.lru = e.tick
	if s.confidence < confidenceArm || s.stride == 0 {
		return
	}
	e.issue(s, addr, now)
}

// pick selects the stream tracker for addr: the single global tracker in
// global mode, or the matching/LRU stream in multi-stream mode.
func (e *Engine) pick(addr uint64) *stream {
	if e.cfg.Mode == ModeGlobal {
		g := &e.global
		if !g.valid {
			*g = stream{valid: true, lastAddr: addr}
			return nil
		}
		return g
	}
	// match: stream whose next expected address neighbourhood contains addr
	var best *stream
	for i := range e.streams {
		s := &e.streams[i]
		if !s.valid {
			continue
		}
		d := int64(addr) - int64(s.lastAddr)
		if d < 0 {
			d = -d
		}
		if d <= 4*mem.LineSize*8 { // generous match window
			if best == nil || absI(int64(addr)-int64(s.lastAddr)) < absI(int64(addr)-int64(best.lastAddr)) {
				best = s
			}
		}
	}
	if best != nil {
		return best
	}
	// allocate LRU slot
	victim := &e.streams[0]
	for i := range e.streams {
		if !e.streams[i].valid {
			victim = &e.streams[i]
			break
		}
		if e.streams[i].lru < victim.lru {
			victim = &e.streams[i]
		}
	}
	*victim = stream{valid: true, lastAddr: addr, lru: e.tick}
	e.Stats.StreamsAlloc++
	return nil
}

func absI(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// issue performs step 3: emit the prefetch requests ahead of the stream.
// The L1 and L2 destinations advance independently so both stay topped up at
// their own distances in steady state.
func (e *Engine) issue(s *stream, addr uint64, now uint64) {
	l1Depth, l2Depth := e.depths()
	const line = mem.LineSize
	stride := s.stride
	// normalize tiny strides to line-granular stepping
	step := stride
	if absI(step) < line {
		if step > 0 {
			step = line
		} else {
			step = -line
		}
	}
	emitRange := func(depth int, cursor *uint64, toL1 bool) {
		for i := firstUncovered(addr, step, depth, *cursor); i <= depth; i++ {
			target := uint64(int64(addr) + step*int64(i))
			lineAddr := target &^ uint64(line-1)
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
			// Cross-page prefetch: "when data is prefetched at the page
			// boundary, a conversion for the next virtual page is
			// automatically requested" (§V-C).
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

// firstUncovered is where the walk over the depth targets addr + step·i
// (i ≥ 1) starts issuing: one past the targets that lie, without wrapping
// around the address space, on or behind the cursor's line in the step's
// direction, which the walk would skip one by one (the cursor is the last
// line issued, 0 for none). The targets move monotonically, so those form a
// prefix; any target past a wrap comes after them, where the walk's own
// coverage check still applies.
func firstUncovered(addr uint64, step int64, depth int, cursor uint64) int {
	if cursor == 0 {
		return 1
	}
	mag := uint64(absI(step))
	var covered uint64
	if step > 0 {
		if last := cursor | (mem.LineSize - 1); addr <= last {
			covered = (last - addr) / mag
		}
	} else if addr >= cursor {
		covered = (addr - cursor) / mag
	}
	return int(min(covered, uint64(depth))) + 1
}

func sameDirectionCovered(stride int64, lineAddr, lastIssued uint64) bool {
	if stride >= 0 {
		return lineAddr <= lastIssued
	}
	return lineAddr >= lastIssued
}

func crossesPage(lineAddr uint64) bool {
	return lineAddr/mem.PageSize != (lineAddr+mem.LineSize)/mem.PageSize ||
		lineAddr%mem.PageSize == 0
}

func nextPage(lineAddr uint64, stride int64) uint64 {
	page := lineAddr &^ (mem.PageSize - 1)
	if stride < 0 {
		return page - mem.PageSize
	}
	return page + mem.PageSize
}

// Flush drops all trained state (context switch / sfence).
func (e *Engine) Flush() {
	for i := range e.streams {
		e.streams[i] = stream{}
	}
	e.global = stream{}
}

// ActiveStreams reports how many streams are currently tracked.
func (e *Engine) ActiveStreams() int {
	if e.cfg.Mode == ModeGlobal {
		if e.global.valid {
			return 1
		}
		return 0
	}
	n := 0
	for i := range e.streams {
		if e.streams[i].valid {
			n++
		}
	}
	return n
}
