package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"xt910/internal/retry"
)

// WorkerOptions configures one campaign worker (cmd/xtworker, or a worker
// goroutine in tests and the benchmark).
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (http://host:port). Required.
	Coordinator string
	// ID is the worker's identity in leases and /progress. Required.
	ID string
	// Jobs is the item pool width within a shard (<= 0: the shard spec's
	// Jobs, then GOMAXPROCS). Any width produces identical report lines.
	Jobs int
	// Runner substitutes the item executor (tests); nil selects the real
	// tool runner.
	Runner Runner
	// Client substitutes the HTTP client (tests inject chaos transports);
	// nil uses a fresh client with a 30s per-request timeout.
	Client *http.Client
	// Poll is the idle re-poll interval when the coordinator has no work
	// (<= 0: 500ms). Polling doubles as the worker's liveness signal while
	// idle.
	Poll time.Duration
	// Retry shapes the backoff for transient coordinator failures
	// (connection refused, 5xx/503 drain). Zero value: retry.Default().
	Retry retry.Policy
	// Seed seeds the backoff jitter stream; 0 derives one from ID, so a
	// restarted fleet does not stampede in phase.
	Seed int64
	// Logf receives worker log lines; nil discards them.
	Logf func(format string, args ...any)
	// MaxShards stops the worker after completing (or abandoning) this many
	// shards; 0 runs until ctx ends. Tests and drain scripts use it.
	MaxShards int

	// DropHeartbeat is a chaos hook: when it returns true the worker
	// silently skips sending that heartbeat (simulating heartbeat loss
	// without killing the worker). Nil: never drop.
	DropHeartbeat func() bool
}

// RunWorker pulls shard leases from the coordinator and executes them until
// ctx ends (or MaxShards is reached): each shard runs through runShard, the
// loop the coordinator's own executor uses, over an httpLink — finished
// entries stream back on every heartbeat and the final batch rides the
// /complete call. Transient coordinator failures back off on the seeded retry
// schedule; a fencing rejection (409) abandons the shard immediately — some
// newer lease owns it, and at-least-once re-execution is safe by journal
// keep-first.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	w, err := newWorker(opts)
	if err != nil {
		return err
	}
	completed := 0
	for ctx.Err() == nil {
		grant, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			w.sleep(ctx, w.backoffDelay())
			continue
		}
		w.backoff.Reset()
		if grant == nil { // no work pending
			w.sleep(ctx, w.opts.Poll)
			continue
		}
		w.run(ctx, grant)
		completed++
		if w.opts.MaxShards > 0 && completed >= w.opts.MaxShards {
			break
		}
	}
	return nil
}

type worker struct {
	opts    WorkerOptions
	backoff *retry.Backoff
}

// newWorker checks opts and fills in the defaults.
func newWorker(opts WorkerOptions) (*worker, error) {
	if opts.Coordinator == "" || opts.ID == "" {
		return nil, fmt.Errorf("campaign: worker needs Coordinator and ID")
	}
	if opts.ID == localWorkerID {
		return nil, fmt.Errorf("campaign: worker id %q is reserved", localWorkerID)
	}
	if opts.Runner == nil {
		opts.Runner = toolRunner{}
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	if (opts.Retry == retry.Policy{}) {
		opts.Retry = retry.Default()
	}
	if opts.Seed == 0 {
		h := fnv.New64a()
		io.WriteString(h, opts.ID)
		opts.Seed = int64(h.Sum64())
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &worker{opts: opts, backoff: retry.New(opts.Retry, opts.Seed)}, nil
}

// run executes one granted shard: the shared runShard over an httpLink.
func (w *worker) run(ctx context.Context, g *LeaseGrant) {
	width := w.opts.Jobs
	if width <= 0 {
		width = g.Spec.Jobs
	}
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	w.opts.Logf("xtworker %s: leased %s/shard%d token=%d (%d/%d items pending)", w.opts.ID,
		g.Campaign, g.Shard, g.Token, len(g.Items)-len(g.Done), len(g.Items))
	runShard(ctx, g, w.opts.Runner, width, &httpLink{w: w, g: g})
}

func (w *worker) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// backoffDelay yields the next lease-loop delay. Once a bounded policy's
// attempt budget runs out the loop must keep probing the coordinator anyway,
// so it holds at the poll cadence instead of spinning on zero-length sleeps.
func (w *worker) backoffDelay() time.Duration {
	if d, ok := w.backoff.Next(); ok {
		return d
	}
	return w.opts.Poll
}

// post sends one JSON request. Network errors and 5xx are transient (retry);
// 409 is the fencing rejection; other 4xx are protocol errors.
func (w *worker) post(ctx context.Context, path string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.opts.Coordinator+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return resp.StatusCode, nil
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return resp.StatusCode, fmt.Errorf("campaign: coordinator replied %d: %s",
			resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// lease asks for a shard. nil grant (no error) means no work is pending.
func (w *worker) lease(ctx context.Context) (*LeaseGrant, error) {
	var grant LeaseGrant
	code, err := w.post(ctx, "/api/v1/lease", leaseRequest{Worker: w.opts.ID}, &grant)
	if err != nil {
		return nil, err
	}
	if code == http.StatusNoContent {
		return nil, nil
	}
	return &grant, nil
}

// entryBatchBytes bounds the encoded entry payload of one worker POST,
// leaving the coordinator's maxEntryBody request cap ample headroom for the
// envelope fields and encoder overhead.
const entryBatchBytes = maxEntryBody / 2

// splitEntryBatches cuts entries into consecutive sub-slices whose summed
// encoded sizes stay under limit, so a backlog accumulated during a long
// partition never produces a request the coordinator rejects with 413. A
// single entry over the limit still gets its own batch — splitting cannot
// shrink it, and nothing the runner emits approaches the cap. An empty
// input yields one empty batch (a bare lease renewal).
func splitEntryBatches(entries []journalEntry, limit int) [][]journalEntry {
	if len(entries) == 0 {
		return [][]journalEntry{nil}
	}
	var batches [][]journalEntry
	start, size := 0, 0
	for i, e := range entries {
		b, _ := json.Marshal(e)
		n := len(b) + 1 // separator
		if i > start && size+n > limit {
			batches = append(batches, entries[start:i])
			start, size = i, 0
		}
		size += n
	}
	return append(batches, entries[start:])
}

// httpLink is the shardLink of a worker process: everything that is a wire
// concern lives here. Finished entries wait in a buffer and ride the next
// heartbeat, in batches bounded under the coordinator's request cap; the
// remainder rides /complete.
type httpLink struct {
	w *worker
	g *LeaseGrant

	mu      sync.Mutex
	entries []journalEntry // finished since the last successful send
}

func (l *httpLink) message(entries []journalEntry) shardMessage {
	return shardMessage{Worker: l.w.opts.ID, Campaign: l.g.Campaign, Shard: l.g.Shard,
		Token: l.g.Token, Entries: entries}
}

func (l *httpLink) deliver(en journalEntry) {
	l.mu.Lock()
	l.entries = append(l.entries, en)
	l.mu.Unlock()
}

// take drains the buffer.
func (l *httpLink) take() []journalEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.entries
	l.entries = nil
	return out
}

// renew sends one heartbeat. Transient failures put the unsent entries back
// and try again next tick (the TTL gives ~3 misses of slack); a 409 means
// the token is fenced off.
func (l *httpLink) renew(ctx context.Context) bool {
	w, g := l.w, l.g
	if w.opts.DropHeartbeat != nil && w.opts.DropHeartbeat() {
		w.opts.Logf("xtworker %s: chaos: dropping heartbeat for %s/shard%d",
			w.opts.ID, g.Campaign, g.Shard)
		return true
	}
	entries := l.take()
	sent := 0
	for _, batch := range splitEntryBatches(entries, entryBatchBytes) {
		code, err := w.post(ctx, "/api/v1/heartbeat", l.message(batch), nil)
		if code == http.StatusConflict {
			w.opts.Logf("xtworker %s: lease on %s/shard%d fenced off; abandoning",
				w.opts.ID, g.Campaign, g.Shard)
			return false
		}
		if err != nil {
			// Transient (partition, drain, 5xx): keep this batch and the
			// unsent remainder for the next beat and keep computing.
			l.mu.Lock()
			l.entries = append(entries[sent:], l.entries...)
			l.mu.Unlock()
			w.opts.Logf("xtworker %s: heartbeat failed (will retry): %v", w.opts.ID, err)
			break
		}
		sent += len(batch)
	}
	return true
}

// complete retries transient failures on the seeded backoff, bounded: past
// a handful of attempts the lease has aged out anyway and the shard will
// re-run elsewhere. Fencing rejections are permanent.
func (l *httpLink) complete(ctx context.Context, itemErr error) {
	w, g := l.w, l.g
	policy := w.opts.Retry
	if policy.Attempts == 0 {
		policy.Attempts = 8
	}
	send := func(path string, msg shardMessage, seed int64) error {
		return retry.Do(ctx, policy, seed, func() error {
			code, err := w.post(ctx, path, msg, nil)
			if err != nil && code >= 400 && code < 500 && code != http.StatusTooManyRequests {
				return retry.Permanent(err)
			}
			return err
		})
	}

	// A long partition can leave more finished entries than one request's
	// budget. Stream all but the last batch down over /heartbeat first —
	// those entries journal durably — so the /complete body itself always
	// fits under the coordinator's cap.
	batches := splitEntryBatches(l.take(), entryBatchBytes)
	last := len(batches) - 1
	for bi, batch := range batches[:last] {
		seed := w.opts.Seed + int64(g.Token) + int64(bi)
		if err := send("/api/v1/heartbeat", l.message(batch), seed); err != nil {
			w.opts.Logf("xtworker %s: draining entries for %s/shard%d token=%d failed: %v",
				w.opts.ID, g.Campaign, g.Shard, g.Token, err)
			return
		}
	}
	msg := l.message(batches[last])
	if itemErr != nil {
		msg.Error = itemErr.Error()
	}
	if err := send("/api/v1/complete", msg, w.opts.Seed+int64(g.Token)); err != nil {
		w.opts.Logf("xtworker %s: complete %s/shard%d token=%d not accepted: %v",
			w.opts.ID, g.Campaign, g.Shard, g.Token, err)
		return
	}
	w.opts.Logf("xtworker %s: completed %s/shard%d token=%d", w.opts.ID, g.Campaign, g.Shard, g.Token)
}
