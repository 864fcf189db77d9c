package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Campaign statuses.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// localWorkerID names the coordinator's in-process fallback executor in the
// lease registry and the /progress view.
const localWorkerID = "local"

// Options configures an Engine.
type Options struct {
	// StateDir holds every campaign's manifest, journals and report plus the
	// divergence corpus and the fencing-token counter. Required.
	StateDir string
	// Jobs is the per-shard worker width for specs that leave Jobs at 0
	// (<= 0: GOMAXPROCS). Any width produces the identical merged report.
	Jobs int
	// Runner substitutes the item executor (tests); nil selects the real
	// tool runner.
	Runner Runner
	// LeaseTTL bounds every shard lease: a worker that misses heartbeats
	// for this long loses the shard back to the pending queue. <= 0 picks
	// the 10s default.
	LeaseTTL time.Duration
	// DisableLocal turns off the in-process fallback executor, making the
	// engine a pure dispatcher: shards only run on remote workers.
	DisableLocal bool
	// LocalGrace is how long the local fallback defers to an absent fleet:
	// the coordinator runs a pending shard itself only once this much time
	// has passed since the later of engine start and the last remote-worker
	// contact, and no remote worker is currently live. 0 (default): the
	// coordinator picks up work the moment no live worker exists — PR 8's
	// single-process behavior when no worker ever connects.
	LocalGrace time.Duration
	// Logf receives operational log lines (lease expiries, worker churn);
	// nil discards them.
	Logf func(format string, args ...any)

	// clock substitutes the registry/liveness clock (tests).
	clock func() time.Time
}

// Engine is the campaign coordinator: it owns the campaign store, the lease
// registry that dispatches shards to workers (remote via the HTTP API, plus
// an in-process fallback executor), and the merge that turns journals into
// reports. Open resumes every unfinished campaign found in the state
// directory before accepting new work.
type Engine struct {
	opts   Options
	corpus *Corpus
	leases *leaseRegistry
	now    func() time.Time

	mu        sync.Mutex
	campaigns map[string]*state
	order     []string // submission order (IDs are sequential, but keep it explicit)
	nextID    int
	draining  bool

	workersMu   sync.Mutex
	workers     map[string]time.Time // remote worker ID -> last contact
	lastRemote  time.Time            // last contact from any remote worker
	bootTime    time.Time
	ctx         context.Context
	cancel      context.CancelFunc
	wg          sync.WaitGroup
	dispatchNow chan struct{} // kick the dispatcher (submit, expiry interest)
}

// state is one campaign's in-memory state, rebuilt from the journals on
// resume.
type state struct {
	id   string
	dir  string
	spec *Spec

	mu      sync.Mutex
	status  string
	errMsg  string
	shards  [][]Item
	done    []map[int]json.RawMessage // per shard: item index -> report line
	divs    map[int]*Divergence       // item index -> divergence
	started time.Time
	instrs  uint64 // retired instructions executed so far (host-MIPS numerator)
	wall    time.Duration
}

// newState is a campaign with nothing journaled yet.
func newState(id, dir string, spec *Spec) *state {
	st := &state{id: id, dir: dir, spec: spec, status: StatusQueued,
		shards: spec.ShardItems(), divs: make(map[int]*Divergence)}
	st.done = make([]map[int]json.RawMessage, len(st.shards))
	for si := range st.shards {
		st.done[si] = make(map[int]json.RawMessage)
	}
	return st
}

// inShard reports whether manifest index idx belongs to shard si.
// Spec.ShardItems cuts contiguous index ranges, so the shard's first and last
// item bound it.
func (st *state) inShard(si, idx int) bool {
	items := st.shards[si]
	return len(items) > 0 && items[0].Index <= idx && idx <= items[len(items)-1].Index
}

// stopClock folds the running wall-time span into the total. Callers hold
// st.mu.
func (st *state) stopClock() {
	if !st.started.IsZero() {
		st.wall += time.Since(st.started)
		st.started = time.Time{}
	}
}

// Open loads the state directory, resumes unfinished campaigns and starts
// the dispatcher loop.
func Open(opts Options) (*Engine, error) {
	if opts.StateDir == "" {
		return nil, fmt.Errorf("campaign: Options.StateDir is required")
	}
	if opts.Jobs <= 0 {
		opts.Jobs = runtime.GOMAXPROCS(0)
	}
	if opts.Runner == nil {
		opts.Runner = toolRunner{}
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.clock == nil {
		opts.clock = time.Now
	}
	if err := os.MkdirAll(opts.StateDir, 0o755); err != nil {
		return nil, err
	}
	corpus, err := OpenCorpus(filepath.Join(opts.StateDir, "corpus"))
	if err != nil {
		return nil, err
	}
	fence, err := openFence(filepath.Join(opts.StateDir, "fence"))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		opts:        opts,
		corpus:      corpus,
		leases:      newLeaseRegistry(opts.LeaseTTL, opts.clock, fence),
		now:         opts.clock,
		campaigns:   make(map[string]*state),
		nextID:      1,
		workers:     make(map[string]time.Time),
		bootTime:    opts.clock(),
		ctx:         ctx,
		cancel:      cancel,
		dispatchNow: make(chan struct{}, 1),
	}
	if err := e.loadAll(); err != nil {
		cancel()
		return nil, err
	}
	e.wg.Add(1)
	go e.dispatcher()
	return e, nil
}

// loadAll rebuilds every campaign from disk and registers the unfinished
// shards for dispatch in ID order.
func (e *Engine) loadAll() error {
	ents, err := os.ReadDir(e.opts.StateDir)
	if err != nil {
		return err
	}
	var ids []string
	for _, ent := range ents {
		if ent.IsDir() && strings.HasPrefix(ent.Name(), "c") {
			if n, err := strconv.Atoi(ent.Name()[1:]); err == nil {
				ids = append(ids, ent.Name())
				if n >= e.nextID {
					e.nextID = n + 1
				}
			}
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		st, err := e.load(id)
		if err != nil {
			return err
		}
		e.campaigns[id] = st
		e.order = append(e.order, id)
		if st.status == StatusQueued {
			e.registerShards(st)
		}
	}
	return nil
}

// load rebuilds one campaign: manifest, then each shard journal (compacted,
// so the append file is well-formed again after a torn tail).
func (e *Engine) load(id string) (*state, error) {
	dir := filepath.Join(e.opts.StateDir, id)
	spec, err := loadSpec(dir)
	if err != nil {
		return nil, err
	}
	st := newState(id, dir, spec)
	complete := true
	for si := range st.shards {
		path := shardJournalPath(dir, si)
		entries, err := readJournal(path)
		if err != nil {
			return nil, err
		}
		if err := compactJournal(path, entries); err != nil {
			return nil, err
		}
		for _, en := range entries {
			if !st.inShard(si, en.Index) {
				continue // stale entry from an edited manifest; ignore
			}
			st.done[si][en.Index] = en.Line
			st.instrs += en.Instrs
			if en.Div != nil {
				st.divs[en.Index] = en.Div
			}
		}
		if len(st.done[si]) < len(st.shards[si]) {
			complete = false
		}
	}
	if complete {
		// Everything ran; the report may still be missing if the daemon died
		// between the last journal append and the report rename.
		if err := st.writeReport(); err != nil {
			return nil, err
		}
		st.status = StatusDone
	}
	return st, nil
}

// registerShards queues every not-yet-complete shard of a campaign for
// dispatch.
func (e *Engine) registerShards(st *state) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for si := range st.shards {
		if len(st.done[si]) < len(st.shards[si]) {
			e.leases.Enqueue(shardRef{Campaign: st.id, Shard: si})
		}
	}
	e.kick()
}

// kick nudges the dispatcher without blocking.
func (e *Engine) kick() {
	select {
	case e.dispatchNow <- struct{}{}:
	default:
	}
}

// Submit validates and admits a campaign, returning its ID. The manifest is
// durable before Submit returns.
func (e *Engine) Submit(spec *Spec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return "", fmt.Errorf("campaign: engine is draining")
	}
	id := fmt.Sprintf("c%04d", e.nextID)
	e.nextID++
	e.mu.Unlock()

	dir := filepath.Join(e.opts.StateDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if err := saveSpec(dir, spec); err != nil {
		return "", err
	}
	st := newState(id, dir, spec)
	e.mu.Lock()
	e.campaigns[id] = st
	e.order = append(e.order, id)
	e.mu.Unlock()
	e.registerShards(st)
	return id, nil
}

// ---------------------------------------------------------------------------
// Dispatch: when the coordinator may run work itself.

// touchWorker records remote-worker contact (lease poll, heartbeat or
// complete) for the liveness view.
func (e *Engine) touchWorker(id string) {
	now := e.now()
	e.workersMu.Lock()
	e.workers[id] = now
	e.lastRemote = now
	e.workersMu.Unlock()
}

// liveWorkers counts remote workers heard from within one lease TTL.
func (e *Engine) liveWorkers() int {
	cutoff := e.now().Add(-e.opts.LeaseTTL)
	e.workersMu.Lock()
	defer e.workersMu.Unlock()
	n := 0
	for id, last := range e.workers {
		if last.Before(cutoff) {
			delete(e.workers, id) // forget the dead; healthz counts the living
			continue
		}
		n++
	}
	return n
}

// WorkerCount is the /healthz live remote worker count.
func (e *Engine) WorkerCount() int { return e.liveWorkers() }

// localMayRun decides whether the in-process fallback should pick up work:
// never while a remote worker is live, and only after LocalGrace has passed
// since the later of boot and the last remote contact — so a briefly
// partitioned fleet gets first refusal on its own shards.
func (e *Engine) localMayRun() bool {
	if e.opts.DisableLocal {
		return false
	}
	if e.liveWorkers() > 0 {
		return false
	}
	e.workersMu.Lock()
	since := e.bootTime
	if e.lastRemote.After(since) {
		since = e.lastRemote
	}
	e.workersMu.Unlock()
	return e.now().Sub(since) >= e.opts.LocalGrace
}

// dispatcher is the engine's background loop: it reaps expired leases
// (requeueing their shards) and decides when the coordinator itself may run
// work — only while no remote fleet is live, one shard at a time. How a
// shard runs is not its business: that is runShard, the loop every worker
// uses.
func (e *Engine) dispatcher() {
	defer e.wg.Done()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-e.ctx.Done():
			return
		case <-tick.C:
		case <-e.dispatchNow:
		}
		for _, l := range e.leases.ExpireStale() {
			e.opts.Logf("campaign: lease expired: %s worker=%s token=%d (requeued)",
				l.ref, l.worker, l.token)
		}
		for e.localMayRun() {
			g, st, err := e.grant(localWorkerID)
			if err != nil {
				break // no pending work
			}
			e.runLocal(g, st)
			if e.ctx.Err() != nil {
				return
			}
		}
	}
}

// runLocal runs one granted shard on the coordinator itself: the shared
// runShard over a localLink, with one journal writer for the shard. A drain
// mid-shard hands the lease back and leaves the journal as the resume point.
func (e *Engine) runLocal(g *LeaseGrant, st *state) {
	ref := shardRef{Campaign: g.Campaign, Shard: g.Shard}
	jw, err := openJournal(shardJournalPath(st.dir, g.Shard))
	if err != nil {
		e.fail(st, err)
		return
	}
	defer jw.Close()
	width := st.spec.Jobs
	if width <= 0 {
		width = e.opts.Jobs
	}
	runShard(e.ctx, g, e.opts.Runner, width,
		&localLink{e: e, st: st, ref: ref, token: g.Token, jw: jw})
	if e.ctx.Err() != nil {
		st.mu.Lock()
		st.status = StatusQueued // resumes from the journals on restart
		st.stopClock()
		st.mu.Unlock()
		e.leases.Requeue(ref, g.Token)
	}
}

// localLink is the shardLink of the coordinator's own executor: the same
// registry and journal code a remote worker's requests reach, called
// directly. It is not a worker in the liveness view (no touchWorker), and
// where a remote worker's entries wait for the next heartbeat, each of these
// is journaled the moment its item finishes.
type localLink struct {
	e     *Engine
	st    *state
	ref   shardRef
	token uint64
	jw    *journalWriter
}

func (l *localLink) deliver(en journalEntry) {
	if !l.e.leases.Holds(l.ref, l.token) {
		return // fenced off: only the current leaseholder writes
	}
	if _, err := l.e.applyEntry(l.jw, l.st, l.ref.Shard, en); err != nil {
		l.e.fail(l.st, err)
	}
}

func (l *localLink) renew(context.Context) bool {
	if _, err := l.e.leases.Renew(l.ref, l.token); err != nil {
		l.e.opts.Logf("campaign: local lease on %s lost: %v", l.ref, err)
		return false
	}
	return true
}

func (l *localLink) complete(_ context.Context, itemErr error) {
	if err := l.e.finishShard(l.st, l.ref, l.token, nil, itemErr); err != nil {
		l.e.opts.Logf("campaign: local complete of %s token=%d: %v", l.ref, l.token, err)
	}
}

// stateFor returns a campaign's in-memory state.
func (e *Engine) stateFor(id string) (*state, bool) {
	e.mu.Lock()
	st, ok := e.campaigns[id]
	e.mu.Unlock()
	return st, ok
}

// markRunning flips a campaign to running on its first lease grant.
func (st *state) markRunning(now time.Time) {
	st.mu.Lock()
	if st.status == StatusQueued {
		st.status = StatusRunning
	}
	if st.started.IsZero() {
		st.started = now
	}
	st.mu.Unlock()
}

// doneIndexes lists a shard's already-journaled items, in manifest order.
func (st *state) doneIndexes(si int) []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	var done []int
	for _, it := range st.shards[si] {
		if _, ok := st.done[si][it.Index]; ok {
			done = append(done, it.Index)
		}
	}
	return done
}

// applyEntry journals one finished item and folds it into the in-memory
// state, keep-first: an index already recorded (a re-run under at-least-once
// dispatch) is skipped entirely, so the journal gains no duplicate line and
// the first-landed record is the one true copy. Returns whether the entry
// was fresh.
func (e *Engine) applyEntry(jw *journalWriter, st *state, si int, en journalEntry) (bool, error) {
	st.mu.Lock()
	if _, dup := st.done[si][en.Index]; dup {
		st.mu.Unlock()
		return false, nil
	}
	st.mu.Unlock()
	if err := jw.append(en); err != nil {
		return false, err
	}
	st.mu.Lock()
	st.done[si][en.Index] = en.Line
	st.instrs += en.Instrs
	if en.Div != nil {
		st.divs[en.Index] = en.Div
	}
	st.mu.Unlock()
	if en.Div != nil {
		if _, err := e.corpus.Add(st.id, en.Div); err != nil {
			return true, err
		}
	}
	return true, nil
}

// applyEntries batch-applies worker-streamed entries to one shard's journal.
func (e *Engine) applyEntries(st *state, si int, entries []journalEntry) error {
	if len(entries) == 0 {
		return nil
	}
	jw, err := openJournal(shardJournalPath(st.dir, si))
	if err != nil {
		return err
	}
	defer jw.Close()
	for _, en := range entries {
		if !st.inShard(si, en.Index) {
			return fmt.Errorf("campaign: %s shard %d: entry index %d outside manifest", st.id, si, en.Index)
		}
		if _, err := e.applyEntry(jw, st, si, en); err != nil {
			return err
		}
	}
	return nil
}

// maybeFinish merges and finalizes a campaign once every shard is complete.
func (e *Engine) maybeFinish(st *state) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.status == StatusDone || st.status == StatusFailed {
		return
	}
	for si := range st.shards {
		if len(st.done[si]) < len(st.shards[si]) {
			return
		}
	}
	st.stopClock()
	if err := st.writeReport(); err != nil {
		st.status = StatusFailed
		st.errMsg = err.Error()
		return
	}
	st.status = StatusDone
}

// fail marks a campaign failed and withdraws its remaining shards from
// dispatch.
func (e *Engine) fail(st *state, err error) {
	st.mu.Lock()
	st.status = StatusFailed
	st.errMsg = err.Error()
	st.stopClock()
	st.mu.Unlock()
	e.leases.Remove(st.id)
}

// ---------------------------------------------------------------------------
// The lease protocol's engine half: grant, heartbeat, finish. Remote workers
// reach it through /lease, /heartbeat and /complete (the exported methods,
// which also record worker liveness); the local executor calls the
// unexported core directly.

// LeaseGrant is the /api/v1/lease response: everything a worker needs to run
// one shard — the manifest, the shard's item list, which items are already
// journaled, and the lease identity (token + TTL) it must renew.
type LeaseGrant struct {
	Campaign string `json:"campaign"`
	Shard    int    `json:"shard"`
	Token    uint64 `json:"token"`
	TTLMS    int64  `json:"ttl_ms"`
	Spec     *Spec  `json:"spec"`
	Items    []Item `json:"items"`
	Done     []int  `json:"done,omitempty"`
}

// grant leases the oldest pending shard to worker and describes it.
// ErrNoWork when nothing is pending.
func (e *Engine) grant(worker string) (*LeaseGrant, *state, error) {
	l, err := e.leases.Acquire(worker)
	if err != nil {
		return nil, nil, err
	}
	st, ok := e.stateFor(l.ref.Campaign)
	if !ok {
		e.leases.Complete(l.ref, l.token)
		return nil, nil, ErrNoWork
	}
	st.markRunning(time.Now())
	e.opts.Logf("campaign: leased %s to worker=%s token=%d", l.ref, worker, l.token)
	return &LeaseGrant{
		Campaign: l.ref.Campaign,
		Shard:    l.ref.Shard,
		Token:    l.token,
		TTLMS:    e.opts.LeaseTTL.Milliseconds(),
		Spec:     st.spec,
		Items:    st.shards[l.ref.Shard], // fixed at admission; read-only from here on
		Done:     st.doneIndexes(l.ref.Shard),
	}, st, nil
}

// AcquireShard grants the oldest pending shard to a remote worker.
// ErrNoWork when nothing is pending.
func (e *Engine) AcquireShard(workerID string) (*LeaseGrant, error) {
	e.touchWorker(workerID)
	g, _, err := e.grant(workerID)
	return g, err
}

// HeartbeatShard renews a worker's lease and journals the entries it
// streamed since the last beat. A stale token is fenced off with
// ErrLeaseLost and the entries are discarded — only the current leaseholder
// writes; the items re-run under the next lease and merge idempotently.
func (e *Engine) HeartbeatShard(workerID, campaignID string, shard int, token uint64, entries []journalEntry) (time.Duration, error) {
	e.touchWorker(workerID)
	ref := shardRef{Campaign: campaignID, Shard: shard}
	ttl, err := e.leases.Renew(ref, token)
	if err != nil {
		return 0, err
	}
	st, ok := e.stateFor(campaignID)
	if !ok {
		return 0, ErrLeaseLost
	}
	if err := e.applyEntries(st, shard, entries); err != nil {
		e.fail(st, err)
		return 0, err
	}
	return ttl, nil
}

// CompleteShard finishes a remote worker's shard; workerErr, when non-empty,
// is the error its first failing item returned.
func (e *Engine) CompleteShard(workerID, campaignID string, shard int, token uint64, entries []journalEntry, workerErr string) error {
	e.touchWorker(workerID)
	st, ok := e.stateFor(campaignID)
	if !ok {
		return ErrLeaseLost
	}
	var itemErr error
	if workerErr != "" {
		itemErr = errors.New(workerErr)
	}
	return e.finishShard(st, shardRef{Campaign: campaignID, Shard: shard}, token, entries, itemErr)
}

// finishShard ends a shard under its fencing token: journal the final
// entries, then either fail the campaign (itemErr: an item failed, and would
// fail again anywhere, being deterministic) or release the lease and, when
// the journal really covers every item, check the campaign for completion. A
// finish with items missing (a buggy worker) requeues the shard instead of
// wedging the campaign.
func (e *Engine) finishShard(st *state, ref shardRef, token uint64, entries []journalEntry, itemErr error) error {
	if !e.leases.Holds(ref, token) {
		return ErrLeaseLost
	}
	if err := e.applyEntries(st, ref.Shard, entries); err != nil {
		e.fail(st, err)
		return err
	}
	if err := e.leases.Complete(ref, token); err != nil {
		return err
	}
	if itemErr != nil {
		e.fail(st, itemErr)
		return nil
	}
	st.mu.Lock()
	missing := len(st.shards[ref.Shard]) - len(st.done[ref.Shard])
	st.mu.Unlock()
	if missing > 0 {
		e.opts.Logf("campaign: %s completed with items missing; requeued", ref)
		e.leases.Enqueue(ref)
		e.kick()
		return fmt.Errorf("campaign: %s: complete with items missing; requeued", ref)
	}
	e.maybeFinish(st)
	return nil
}

// ---------------------------------------------------------------------------

// writeReport merges the shard journals into report.jsonl: every item's line
// in manifest order, concatenation over shards in shard order. Atomic, so
// the report's existence is the done marker. Callers hold st.mu or have
// exclusive access.
func (st *state) writeReport() error {
	var buf bytes.Buffer
	for si, items := range st.shards {
		for _, it := range items {
			line, ok := st.done[si][it.Index]
			if !ok {
				return fmt.Errorf("campaign: %s: item %d missing at merge", st.id, it.Index)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
	}
	return writeAtomic(reportPath(st.dir), buf.Bytes())
}

// Close drains the engine: new submissions are rejected, the in-flight local
// shard is cancelled at the next item boundary (its finished items are
// already journaled), and the dispatcher exits. Remote leases are left to
// age out; their shards requeue when a restarted coordinator reloads the
// journals. Safe to call more than once.
func (e *Engine) Close() {
	e.mu.Lock()
	e.draining = true
	e.mu.Unlock()
	e.cancel()
	e.wg.Wait()
}

// Draining reports whether Close has begun.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// Shard lease states in the /progress view.
const (
	ShardPending = "pending"
	ShardLeased  = "leased"
	ShardDone    = "done"
)

// ShardStatus is one shard's live progress, including which worker holds its
// lease and for how long — the field that tells a stuck shard (lease aging
// toward expiry, no items landing) from a merely slow one.
type ShardStatus struct {
	Shard     int    `json:"shard"`
	ItemsDone int    `json:"items_done"`
	Items     int    `json:"items"`
	State     string `json:"state"`
	Worker    string `json:"worker,omitempty"`
	Token     uint64 `json:"token,omitempty"`
	// LeaseAgeMS is how long the current lease has been held.
	LeaseAgeMS int64 `json:"lease_age_ms,omitempty"`
}

// Status is a campaign's live progress snapshot, the /campaigns/{id} API
// document.
type Status struct {
	ID          string        `json:"id"`
	Tool        string        `json:"tool"`
	Status      string        `json:"status"`
	Error       string        `json:"error,omitempty"`
	Shards      []ShardStatus `json:"shards"`
	ItemsDone   int           `json:"items_done"`
	Items       int           `json:"items"`
	Divergences int           `json:"divergences"`
	// HostMIPS is the retired-instruction throughput of the campaign so far
	// (millions of simulated instructions per host second, summed over
	// workers). Zero for tools that do not report instruction counts.
	HostMIPS float64 `json:"host_mips,omitempty"`
}

func (st *state) snapshot() Status {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := Status{ID: st.id, Tool: st.spec.Tool, Status: st.status, Error: st.errMsg,
		Divergences: len(st.divs)}
	for si, items := range st.shards {
		sh := ShardStatus{Shard: si, ItemsDone: len(st.done[si]), Items: len(items),
			State: ShardPending}
		if sh.ItemsDone >= sh.Items {
			sh.State = ShardDone
		}
		s.Shards = append(s.Shards, sh)
		s.ItemsDone += len(st.done[si])
		s.Items += len(items)
	}
	wall := st.wall
	if st.status == StatusRunning && !st.started.IsZero() {
		wall += time.Since(st.started)
	}
	if secs := wall.Seconds(); secs > 0 {
		s.HostMIPS = float64(st.instrs) / secs / 1e6
	}
	return s
}

// Get returns one campaign's status, lease assignments overlaid.
func (e *Engine) Get(id string) (Status, bool) {
	st, ok := e.stateFor(id)
	if !ok {
		return Status{}, false
	}
	s := st.snapshot()
	for i := range s.Shards {
		ref := shardRef{Campaign: id, Shard: s.Shards[i].Shard}
		if info, held := e.leases.Info(ref); held {
			s.Shards[i].State = ShardLeased
			s.Shards[i].Worker = info.Worker
			s.Shards[i].Token = info.Token
			s.Shards[i].LeaseAgeMS = info.Age.Milliseconds()
		}
	}
	return s, true
}

// List returns every campaign's status in submission order.
func (e *Engine) List() []Status {
	e.mu.Lock()
	ids := append([]string(nil), e.order...)
	e.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if s, ok := e.Get(id); ok {
			out = append(out, s)
		}
	}
	return out
}

// Report returns the merged report of a finished campaign.
func (e *Engine) Report(id string) ([]byte, error) {
	st, ok := e.stateFor(id)
	if !ok {
		return nil, fmt.Errorf("campaign: unknown campaign %q", id)
	}
	st.mu.Lock()
	status := st.status
	st.mu.Unlock()
	if status != StatusDone {
		return nil, fmt.Errorf("campaign: %s is %s, report not ready", id, status)
	}
	return os.ReadFile(reportPath(st.dir))
}

// Divergences returns a campaign's divergences in manifest order.
func (e *Engine) Divergences(id string) ([]*Divergence, error) {
	st, ok := e.stateFor(id)
	if !ok {
		return nil, fmt.Errorf("campaign: unknown campaign %q", id)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	idx := make([]int, 0, len(st.divs))
	for i := range st.divs {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([]*Divergence, 0, len(idx))
	for _, i := range idx {
		d := *st.divs[i]
		out = append(out, &d)
	}
	return out, nil
}

// Repro returns the shrunken reproducer a campaign found for a seed.
func (e *Engine) Repro(id string, seed int64) (string, error) {
	divs, err := e.Divergences(id)
	if err != nil {
		return "", err
	}
	for _, d := range divs {
		if d.Seed == seed {
			if d.Shrunk == "" {
				return "", fmt.Errorf("campaign: seed %d diverged but has no shrunken repro", seed)
			}
			return d.Shrunk, nil
		}
	}
	return "", fmt.Errorf("campaign: no divergence for seed %d in %s", seed, id)
}

// Corpus exposes the engine's divergence corpus.
func (e *Engine) Corpus() *Corpus { return e.corpus }
