// Package trace is the pipeline observability subsystem: a per-µop
// lifecycle-event recorder fed by hooks in every stage of internal/core, with
// two consumer families:
//
//   - per-µop trace sinks — a streaming Konata/Kanata-format writer (viewable
//     in the standard Konata pipeline visualizer) and a JSONL writer — with
//     bounded memory via start/stop cycle windows, instruction sampling and a
//     flight-recorder ring buffer;
//   - a top-down CPI-stack accumulator (cpistack.go) that attributes every
//     simulated cycle to exactly one of five buckets (retiring,
//     frontend-bound, bad-speculation, backend-memory, backend-core), so the
//     buckets sum exactly to total cycles by construction.
//
// The hook API is zero-overhead when disabled: the core holds a nil *Tracer
// and every call site is guarded by a single predictable nil check. µOps are
// identified by the core's rename sequence number; events for µops the tracer
// chose not to record (outside the cycle window, sampled out, or evicted) are
// cheap map misses.
package trace

import (
	"fmt"

	"xt910/isa"
)

// Stage names one pipeline lifecycle point of a µop. The order is the nominal
// pipeline order; per-µop stage cycles are nondecreasing in this order except
// for the two LSU legs (StageAddr/StageData), which issue independently.
type Stage uint8

const (
	StageFetch     Stage = iota // fetch group issued for this PC (IF)
	StagePredecode              // fetch group delivered + decoded (IP/IB)
	StageRename                 // renamed onto physical registers (ID/IR)
	StageDispatch               // dispatched into an issue queue (IS)
	StageIssue                  // selected by the age-vector scheduler (RF)
	StageAddr                   // LSU address generation (load AGU / st.addr leg)
	StageData                   // LSU store-data capture (st.data leg)
	StageExec                   // execution started (EX1)
	StageWriteback              // result becomes architecturally visible (WB)
	StageCommit                 // retired in order (RT1/RT2)
	NumStages
)

// stageNames are the Konata lane labels (short, column-friendly).
var stageNames = [NumStages]string{"F", "Pd", "Rn", "Ds", "Is", "Ag", "Sd", "Ex", "Wb", "Cm"}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// SquashCause attributes a squashed µop to the recovery mechanism that killed
// it (Fig. 8's flush machinery).
type SquashCause uint8

const (
	SquashNone       SquashCause = iota
	SquashMispredict             // branch misprediction checkpoint recovery
	SquashMemOrder               // §V-A load/store ordering violation squash
	SquashException              // precise exception at the ROB head
	SquashInterrupt              // asynchronous interrupt entry
	SquashSerialize              // serializing instruction (CSR/fence.i/…)
)

var causeNames = [...]string{"none", "mispredict", "memorder", "exception", "interrupt", "serialize"}

func (c SquashCause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("SquashCause(%d)", uint8(c))
}

// Record is the complete lifecycle of one traced µop. Stage cycles are valid
// only where the corresponding Has bit is set (a store never sets StageAddr
// and StageExec the way an ALU op never sets StageData).
type Record struct {
	Seq  uint64
	PC   uint64
	Inst isa.Inst

	Cycle [NumStages]uint64
	Has   [NumStages]bool

	// Retired is true for committed µops; squashed µops carry their Cause.
	Retired bool
	Cause   SquashCause
	End     uint64 // commit or squash cycle
}

// Sink consumes completed µop records (konata.go, jsonl.go).
type Sink interface {
	Emit(*Record) error
	Close() error
}

// Config bounds tracer cost and memory.
type Config struct {
	// StartCycle/StopCycle window record creation: µops renamed before
	// StartCycle or at/after StopCycle (when StopCycle > 0) are not recorded.
	// The CPI stack always covers the whole run.
	StartCycle uint64
	StopCycle  uint64

	// SampleEvery keeps one in every N renamed µops (0 or 1: keep all).
	SampleEvery uint64

	// KeepLast, when > 0, turns the tracer into a flight recorder: only the
	// last KeepLast completed records are kept (ring buffer) and emitted to
	// the sinks at Close. 0 streams records to the sinks as they complete.
	KeepLast int
}

// bufferCap bounds in-flight (renamed, not yet committed or squashed)
// records; the oldest is dropped on overflow. The pipeline bounds in-flight
// µops by the ROB size, so the stock configurations (192 entries at most)
// never evict.
const bufferCap = 1024

// Tracer receives pipeline events from one core. It is not safe for
// concurrent use; each core owns at most one tracer.
type Tracer struct {
	cfg   Config
	sinks []Sink

	cpi CPIStack
	pcs PCStack

	live  map[uint64]*Record
	order []uint64 // live seqs, oldest first (eviction order)

	ring    []*Record // flight-recorder ring (KeepLast mode)
	ringPos int

	// freel recycles Records in streaming mode: a record is dead once every
	// sink has serialized it, so the tracer's steady-state allocation rate is
	// zero. KeepLast mode never recycles — the ring retains pointers.
	freel []*Record

	nSeen   uint64 // µops offered to Begin (sampling counter)
	Dropped uint64 // records evicted from the in-flight buffer

	err error
}

// New builds a tracer with the given sinks. A tracer with no sinks still
// accumulates the CPI stack — the cheap always-on consumer.
func New(cfg Config, sinks ...Sink) *Tracer {
	t := &Tracer{cfg: cfg, sinks: sinks, live: make(map[uint64]*Record)}
	if cfg.KeepLast > 0 {
		t.ring = make([]*Record, 0, cfg.KeepLast)
	}
	return t
}

// Begin opens a record for a µop at rename time. Window and sampling gating
// happen here: a skipped µop costs later events only a map miss.
func (t *Tracer) Begin(seq, pc uint64, in isa.Inst, now uint64) {
	t.nSeen++
	if now < t.cfg.StartCycle || (t.cfg.StopCycle > 0 && now >= t.cfg.StopCycle) {
		return
	}
	if t.cfg.SampleEvery > 1 && (t.nSeen-1)%t.cfg.SampleEvery != 0 {
		return
	}
	if len(t.order) >= bufferCap {
		oldest := t.order[0]
		t.order = t.order[1:]
		if old, ok := t.live[oldest]; ok {
			t.putRecord(old)
		}
		delete(t.live, oldest)
		t.Dropped++
	}
	r := t.getRecord()
	r.Seq, r.PC, r.Inst = seq, pc, in
	t.live[seq] = r
	t.order = append(t.order, seq)
}

// StageAt stamps a lifecycle stage. Later stamps for the same stage win (a
// replayed µop reports its final timing).
func (t *Tracer) StageAt(seq uint64, st Stage, cycle uint64) {
	if r, ok := t.live[seq]; ok {
		r.Cycle[st] = cycle
		r.Has[st] = true
	}
}

// Retire completes a record as committed and hands it to the consumers.
func (t *Tracer) Retire(seq, cycle uint64) {
	t.finish(seq, cycle, true, SquashNone)
}

// Squash completes a record as killed, attributing the recovery cause.
func (t *Tracer) Squash(seq, cycle uint64, cause SquashCause) {
	t.finish(seq, cycle, false, cause)
}

func (t *Tracer) finish(seq, cycle uint64, retired bool, cause SquashCause) {
	r, ok := t.live[seq]
	if !ok {
		return
	}
	delete(t.live, seq)
	for i, s := range t.order {
		if s == seq {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
	r.Retired = retired
	r.Cause = cause
	r.End = cycle
	if retired {
		r.Cycle[StageCommit] = cycle
		r.Has[StageCommit] = true
	}
	if t.cfg.KeepLast > 0 {
		if len(t.ring) < t.cfg.KeepLast {
			t.ring = append(t.ring, r)
		} else {
			t.ring[t.ringPos] = r
			t.ringPos = (t.ringPos + 1) % t.cfg.KeepLast
		}
		return
	}
	t.emit(r)
}

func (t *Tracer) emit(r *Record) {
	for _, s := range t.sinks {
		if err := s.Emit(r); err != nil && t.err == nil {
			t.err = err
		}
	}
	t.putRecord(r)
}

func (t *Tracer) getRecord() *Record {
	if n := len(t.freel); n > 0 {
		r := t.freel[n-1]
		t.freel = t.freel[:n-1]
		*r = Record{}
		return r
	}
	return &Record{}
}

// putRecord returns a dead record to the freelist. KeepLast mode keeps every
// emitted record alive in the ring until Close, so nothing is recycled there.
func (t *Tracer) putRecord(r *Record) {
	if t.cfg.KeepLast > 0 || len(t.freel) >= bufferCap {
		return
	}
	t.freel = append(t.freel, r)
}

// Cycle attributes one simulated cycle to a CPI-stack bucket, its sub-bucket
// (SubNone for unrefined classes) and, for backend cycles, the ROB-head PC
// that owned the stall (NoPC otherwise). The core calls it exactly once per
// cycle it counts in Stats.Cycles, which is what makes the buckets sum
// exactly to total cycles.
func (t *Tracer) Cycle(cl CycleClass, sub SubClass, pc uint64) {
	t.cpi.Add(cl, sub)
	t.pcs.AddN(pc, cl, 1)
}

// CycleN attributes n simulated cycles to one bucket at once — the fast-
// forward path's batched equivalent of n Cycle calls, keeping the exact-
// partition property (buckets sum to Stats.Cycles) across skipped windows.
func (t *Tracer) CycleN(cl CycleClass, sub SubClass, pc uint64, n uint64) {
	t.cpi.AddN(cl, sub, n)
	t.pcs.AddN(pc, cl, n)
}

// CPI returns the accumulated CPI stack.
func (t *Tracer) CPI() *CPIStack { return &t.cpi }

// PCs returns the accumulated per-PC backend stall attribution.
func (t *Tracer) PCs() *PCStack { return &t.pcs }

// Close drains the flight-recorder ring (oldest first) and closes every sink.
func (t *Tracer) Close() error {
	if t.cfg.KeepLast > 0 {
		n := len(t.ring)
		for i := 0; i < n; i++ {
			t.emit(t.ring[(t.ringPos+i)%n])
		}
		t.ring = nil
	}
	for _, s := range t.sinks {
		if err := s.Close(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// Err reports the first sink error seen during streaming emission.
func (t *Tracer) Err() error { return t.err }
