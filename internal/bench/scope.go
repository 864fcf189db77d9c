package bench

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"time"

	"xt910/internal/asm"
	"xt910/internal/sched"
	"xt910/internal/soc"
)

// Scope is what the runs of one harness invocation share: a cache that
// simulates each distinct run once, and a gate that keeps at most Jobs
// simulations in flight however many experiments and arms ask. Run,
// calib.Sweep and an experiment called on its own each open one with Scoped;
// none outlives the call that opened it, so two invocations do the same work.
type Scope struct {
	gate gate

	mu         sync.Mutex
	runs       map[runKey]*sharedRun
	simsRun    int
	simsReused int

	uncached bool // tests: every run is treated like one with a caller's own set-up
}

func newScope(jobs int) *Scope {
	if jobs < 1 {
		jobs = 1
	}
	return &Scope{gate: gate{size: jobs, free: jobs}, runs: make(map[runKey]*sharedRun)}
}

// Sims reports how many simulations the scope has executed and how many
// requests it answered from an earlier one.
func (sc *Scope) Sims() (run, reused int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.simsRun, sc.simsReused
}

// Scoped returns ctx carrying a run scope and that scope: ctx's own when it
// already carries one (the caller's invocation is wider than this call),
// otherwise a fresh scope jobs wide.
func Scoped(ctx context.Context, jobs int) (context.Context, *Scope) {
	if t, ok := ctx.Value(ticketKey{}).(ticket); ok {
		return ctx, t.lane.sc
	}
	sc := newScope(jobs)
	ctx, _ = sc.enter(ctx, 0, 0)
	return ctx, sc
}

// enter opens the lane of the scope's index-th experiment and returns ctx
// placed in it. A positive timeout bounds the experiment's running time,
// counted from its first slot.
func (sc *Scope) enter(ctx context.Context, index int, timeout time.Duration) (context.Context, *lane) {
	l := &lane{sc: sc, index: index, timeout: timeout, began: make(chan struct{})}
	return context.WithValue(ctx, ticketKey{}, ticket{lane: l}), l
}

// lane is one experiment's place in the scope: its rank at the gate and the
// clock its wall time and deadline are read from. The clock starts at the
// experiment's first slot, so time spent queueing behind other experiments
// is neither reported as its own nor charged to its deadline.
type lane struct {
	sc      *Scope
	index   int
	timeout time.Duration

	once  sync.Once
	start time.Time     // first slot; zero when the experiment never simulated
	began chan struct{} // closed at the first slot, or by finish
}

func (l *lane) begin() {
	l.once.Do(func() {
		l.start = time.Now()
		close(l.began)
	})
}

// finish marks the experiment as returned (it may never have simulated).
func (l *lane) finish() { l.once.Do(func() { close(l.began) }) }

// wall is the experiment's own running time: since its first slot, or
// whole when it took none. Call it after the experiment has returned.
func (l *lane) wall(whole time.Duration) time.Duration {
	if l.start.IsZero() {
		return whole
	}
	return time.Since(l.start)
}

// bound applies the experiment's deadline to a run that holds a slot.
func (l *lane) bound(ctx context.Context) (context.Context, context.CancelFunc) {
	if l.timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, l.start.Add(l.timeout))
}

// ticket is a run's rank at the gate: experiment, then arm — paper order.
type ticket struct {
	lane *lane
	arm  int
}

type ticketKey struct{}

func ticketOf(ctx context.Context) ticket { return ctx.Value(ticketKey{}).(ticket) }

// gate hands out simulation slots. A free slot goes to whoever asks; a
// released one goes to the waiter with the lowest ticket, so when slots are
// scarce the evaluation proceeds in paper order and a long arm in the middle
// of the list never starts last.
type gate struct {
	mu      sync.Mutex
	size    int
	free    int
	peak    int // most slots ever held at once
	waiting []*waiter
}

type waiter struct {
	t     ticket
	ready chan struct{} // closed when the slot is handed over
}

func (t ticket) before(u ticket) bool {
	if t.lane.index != u.lane.index {
		return t.lane.index < u.lane.index
	}
	return t.arm < u.arm
}

func (g *gate) acquire(ctx context.Context, t ticket) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	g.mu.Lock()
	if g.free > 0 {
		g.free--
		if held := g.size - g.free; held > g.peak {
			g.peak = held
		}
		g.mu.Unlock()
		return nil
	}
	w := &waiter{t: t, ready: make(chan struct{})}
	g.waiting = append(g.waiting, w)
	g.mu.Unlock()
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
	}
	g.mu.Lock()
	for i, x := range g.waiting {
		if x == w {
			g.waiting = append(g.waiting[:i], g.waiting[i+1:]...)
			g.mu.Unlock()
			return ctx.Err()
		}
	}
	g.mu.Unlock()
	g.release() // the slot was handed over as ctx ended
	return ctx.Err()
}

func (g *gate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.waiting) == 0 {
		g.free++
		return
	}
	best := 0
	for i, w := range g.waiting {
		if w.t.before(g.waiting[best].t) { // equal tickets: first come
			best = i
		}
	}
	w := g.waiting[best]
	g.waiting = append(g.waiting[:best], g.waiting[best+1:]...)
	close(w.ready)
}

// runKey is everything that determines a run. Quick and full sizes differ in
// the image; a set-up that is a caller's own func has no identity, so such a
// run has no key and is never shared.
type runKey struct {
	image [sha256.Size]byte // Base, Entry, Data
	sys   soc.Config
	paged pagedSetup
	cpi   bool
}

func keyOf(o Options, p *asm.Program, sys soc.Config, su setup) (runKey, bool) {
	k := runKey{sys: sys, cpi: o.CPIStack}
	switch s := su.(type) {
	case nil:
	case pagedSetup:
		k.paged = s
	default:
		return runKey{}, false
	}
	h := sha256.New()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[:8], p.Base)
	binary.LittleEndian.PutUint64(hdr[8:], p.Entry)
	h.Write(hdr[:])
	h.Write(p.Data)
	h.Sum(k.image[:0])
	return k, true
}

// sharedRun is one key's simulation: in flight until done closes, then a
// result for every asker — or, when its owner failed or was cancelled,
// nothing: the entry has left the map and waiters simulate for themselves.
type sharedRun struct {
	done chan struct{}
	ok   bool
	res  runResult
}

// run answers one runProgram call: from a finished simulation of the same
// key, by waiting for one in flight, or by simulating. Every path goes
// through the gate, so hits are served in paper order too, and an owner
// always holds a slot while others wait for it.
func (sc *Scope) run(ctx context.Context, key runKey, keyed bool, sim func(context.Context) (runResult, error)) (runResult, error) {
	t := ticketOf(ctx)
	keyed = keyed && !sc.uncached
	for {
		if err := sc.gate.acquire(ctx, t); err != nil {
			return runResult{}, err
		}
		t.lane.begin()
		sc.mu.Lock()
		var e *sharedRun
		if keyed {
			e = sc.runs[key]
		}
		if e == nil {
			sc.simsRun++
			if keyed {
				e = &sharedRun{done: make(chan struct{})}
				sc.runs[key] = e
			}
			sc.mu.Unlock()
			return sc.own(ctx, t.lane, key, e, sim)
		}
		sc.mu.Unlock()
		sc.gate.release()
		select {
		case <-e.done:
		case <-ctx.Done():
			return runResult{}, ctx.Err()
		}
		if e.ok {
			sc.mu.Lock()
			sc.simsReused++
			sc.mu.Unlock()
			sched.AddCycles(ctx, e.res.Cycles)
			sched.AddInstrs(ctx, e.res.Retired)
			return e.res, nil
		}
	}
}

// own simulates while holding a slot and, for a keyed run (e non-nil),
// publishes the outcome. The slot and the entry are settled even when the
// simulation panics, so no waiter is left behind.
func (sc *Scope) own(ctx context.Context, l *lane, key runKey, e *sharedRun, sim func(context.Context) (runResult, error)) (runResult, error) {
	defer sc.gate.release()
	if e != nil {
		defer func() {
			if !e.ok {
				sc.mu.Lock()
				delete(sc.runs, key)
				sc.mu.Unlock()
			}
			close(e.done)
		}()
	}
	ctx, cancel := l.bound(ctx)
	defer cancel()
	res, err := sim(ctx)
	if e != nil && err == nil {
		e.res, e.ok = res, true
	}
	return res, err
}
