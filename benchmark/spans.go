package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (never inside the simulator). N is the work the call reported:
// instructions, commits, items, decodes — whatever its layer counts.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: top level
	Workload string `json:"workload"`
	Rep      int    `json:"rep"` // -1: set-up, -2: layer ledger
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	N        uint64 `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

const (
	repSetup  = -1
	repLedger = -2
)

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// scope is a position in the span tree. The zero scope belongs to no tracer
// and makes begin/end no-ops, which is how the untraced pass runs the very
// same code with tracing off.
type scope struct {
	tr  *tracer
	id  int
	rep int
}

func (tr *tracer) root(rep int) scope { return scope{tr: tr, rep: rep} }

func (sc scope) begin(layer, name string) scope {
	if sc.tr == nil {
		return sc
	}
	tr := sc.tr
	tr.mu.Lock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: sc.id, Workload: tr.workload,
		Rep: sc.rep, Layer: layer, Name: name, StartNS: time.Since(tr.t0).Nanoseconds()})
	tr.mu.Unlock()
	return scope{tr: tr, id: id, rep: sc.rep}
}

// end closes the span with its work count.
func (sc scope) end(n uint64) {
	if sc.tr == nil || sc.id == 0 {
		return
	}
	end := time.Since(sc.tr.t0).Nanoseconds()
	sc.tr.mu.Lock()
	s := &sc.tr.spans[sc.id-1]
	s.EndNS, s.N = end, n
	sc.tr.mu.Unlock()
}

// add records an already-finished interval (experiments report their wall
// time through a callback after they end).
func (sc scope) add(layer, name string, d time.Duration, n uint64) {
	if sc.tr == nil {
		return
	}
	end := time.Since(sc.tr.t0).Nanoseconds()
	sc.tr.mu.Lock()
	sc.tr.spans = append(sc.tr.spans, span{ID: len(sc.tr.spans) + 1, Parent: sc.id,
		Workload: sc.tr.workload, Rep: sc.rep, Layer: layer, Name: name,
		StartNS: end - d.Nanoseconds(), EndNS: end, N: n})
	sc.tr.mu.Unlock()
}

// agg is the total over the spans of one name.
type agg struct {
	count int
	dur   time.Duration
	n     uint64
	max   time.Duration
}

func (a agg) seconds() float64 { return a.dur.Seconds() }

// perCall is the mean duration of one call, in the given unit.
func (a agg) perCall(unit time.Duration) float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.dur) / float64(unit) / float64(a.count)
}

// rate is work units per second.
func (a agg) rate() float64 {
	if a.dur <= 0 {
		return 0
	}
	return float64(a.n) / a.dur.Seconds()
}

func (tr *tracer) named(name string) agg {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var a agg
	for _, s := range tr.spans {
		if s.Name != name {
			continue
		}
		a.count++
		a.dur += s.dur()
		a.n += s.N
		if s.dur() > a.max {
			a.max = s.dur()
		}
	}
	return a
}

func (tr *tracer) has(name string) bool { return tr.named(name).count > 0 }

// durations lists the duration of every span of one name, in record order.
func (tr *tracer) durations(name string) []time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []time.Duration
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfByLayer sums, per layer, each span's duration minus the part of it
// its child spans cover (children may overlap when they ran in parallel, so
// their intervals are merged first). keep selects the spans counted.
func (tr *tracer) selfByLayer(keep func(span) bool) map[string]time.Duration {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if !keep(s) {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered, hi int64
		hi = s.StartNS
		for _, k := range kids {
			lo, end := k.StartNS, k.EndNS
			if lo < hi {
				lo = hi
			}
			if end > s.EndNS {
				end = s.EndNS
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.Layer] += time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// write dumps every span as one JSON object per line.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for i := range tr.spans {
		if err = enc.Encode(&tr.spans[i]); err != nil {
			break
		}
	}
	tr.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
