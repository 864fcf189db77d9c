package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xt910/internal/cliflags"
	"xt910/internal/retry"
)

// mkEntry builds a synthetic journal entry for engine-level protocol tests.
func mkEntry(idx int, seed int64) journalEntry {
	line, _ := json.Marshal(map[string]any{"seed": seed, "status": "ok"})
	return journalEntry{Index: idx, Line: line, Instrs: 100}
}

// shardGrantFor acquires leases until one lands on the wanted shard,
// completing unwanted grants is not possible (that would need their items),
// so it just collects; callers use small shard counts.
func acquireAll(t *testing.T, e *Engine, worker string, n int) map[int]*LeaseGrant {
	t.Helper()
	out := make(map[int]*LeaseGrant)
	for i := 0; i < n; i++ {
		g, err := e.AcquireShard(worker)
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		out[g.Shard] = g
	}
	return out
}

// TestLeaseProtocolStreamingAndFencing drives the engine half of the worker
// protocol directly: entries streamed over heartbeats are durable before the
// worker dies, the dead worker's token is fenced off everywhere, and the
// re-granted lease reports exactly the already-journaled items as done.
func TestLeaseProtocolStreamingAndFencing(t *testing.T) {
	e, err := Open(Options{StateDir: t.TempDir(), Jobs: 1, DisableLocal: true,
		LeaseTTL: 150 * time.Millisecond,
		Runner:   stubRunner{sigFor: func(int64) string { return "" }}})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer e.Close()
	id, err := e.Submit(&Spec{Tool: "fuzz", Knobs: cliflags.Knobs{N: 6, Seed: 1}, Shards: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	grants := acquireAll(t, e, "wA", 2)
	g0 := grants[0]
	if g0 == nil || len(g0.Items) != 3 || g0.Spec.Tool != "fuzz" {
		t.Fatalf("grant for shard 0 malformed: %+v", g0)
	}
	if _, err := e.AcquireShard("wB"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("third acquire with 2 shards leased: %v, want ErrNoWork", err)
	}

	// Stream two of shard 0's three items over heartbeats.
	if _, err := e.HeartbeatShard("wA", id, 0, g0.Token,
		[]journalEntry{mkEntry(g0.Items[0].Index, g0.Items[0].Seed)}); err != nil {
		t.Fatalf("heartbeat 1: %v", err)
	}
	if _, err := e.HeartbeatShard("wA", id, 0, g0.Token,
		[]journalEntry{mkEntry(g0.Items[1].Index, g0.Items[1].Seed)}); err != nil {
		t.Fatalf("heartbeat 2: %v", err)
	}

	// Worker dies: silence past the TTL. (A heartbeat poll would renew the
	// lease and keep it alive — exactly the protocol working as designed —
	// so go quiet instead.) The dispatcher requeues both shards; the zombie
	// token is then fenced off on every verb.
	time.Sleep(3 * 150 * time.Millisecond)
	if _, err := e.HeartbeatShard("wA", id, 0, g0.Token, nil); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie heartbeat after TTL: %v, want ErrLeaseLost", err)
	}
	if err := e.CompleteShard("wA", id, 0, g0.Token, nil, ""); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie complete: %v, want ErrLeaseLost", err)
	}

	// Re-grant: the streamed items are already done; only the third remains.
	regrants := acquireAll(t, e, "wB", 2)
	r0 := regrants[0]
	if r0 == nil {
		t.Fatalf("shard 0 not re-granted: %+v", regrants)
	}
	if r0.Token <= g0.Token {
		t.Fatalf("re-grant token %d not above zombie token %d", r0.Token, g0.Token)
	}
	if len(r0.Done) != 2 {
		t.Fatalf("re-grant done list %v, want the 2 streamed items", r0.Done)
	}

	// A duplicate of an already-streamed item (at-least-once re-run) merges
	// keep-first; completing both shards finishes the campaign.
	var remaining []journalEntry
	for _, it := range r0.Items {
		remaining = append(remaining, mkEntry(it.Index, it.Seed)) // includes dups
	}
	if err := e.CompleteShard("wB", id, 0, r0.Token, remaining, ""); err != nil {
		t.Fatalf("complete shard 0: %v", err)
	}
	r1 := regrants[1]
	if r1 == nil {
		t.Fatalf("shard 1 not re-granted: %+v", regrants)
	}
	var e1 []journalEntry
	for _, it := range r1.Items {
		e1 = append(e1, mkEntry(it.Index, it.Seed))
	}
	if err := e.CompleteShard("wB", id, 1, r1.Token, e1, ""); err != nil {
		t.Fatalf("complete shard 1: %v", err)
	}

	s := waitStatus(t, e, id, StatusDone)
	if s.ItemsDone != 6 {
		t.Fatalf("items done %d, want 6", s.ItemsDone)
	}
	rep, err := e.Report(id)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	lines := bytes.Split(bytes.TrimRight(rep, "\n"), []byte("\n"))
	if len(lines) != 6 {
		t.Fatalf("report has %d lines, want 6:\n%s", len(lines), rep)
	}
	for i, ln := range lines {
		var row struct {
			Seed int64 `json:"seed"`
		}
		if err := json.Unmarshal(ln, &row); err != nil || row.Seed != int64(i+1) {
			t.Fatalf("report line %d = %q, want seed %d", i, ln, i+1)
		}
	}
}

// TestLocalFallbackDefersToLiveWorkers pins the degradation contract both
// ways: while a remote worker is live the coordinator does not execute
// shards itself, and once the worker goes silent past the TTL the local
// executor picks the requeued shards up and finishes the campaign.
func TestLocalFallbackDefersToLiveWorkers(t *testing.T) {
	runnerCalls := make(chan int64, 64)
	counting := stubRunner{sigFor: func(int64) string { return "" }}
	e, err := Open(Options{StateDir: t.TempDir(), Jobs: 1,
		LeaseTTL:   200 * time.Millisecond,
		LocalGrace: 300 * time.Millisecond,
		Runner: runnerFunc(func(ctx context.Context, spec *Spec, it Item) (ItemResult, error) {
			runnerCalls <- it.Seed
			return counting.Run(ctx, spec, it)
		})})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer e.Close()

	id, err := e.Submit(&Spec{Tool: "fuzz", Knobs: cliflags.Knobs{N: 4, Seed: 1}, Shards: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// A remote worker leases shard 0 and goes silent. While it is live
	// (within TTL), the local executor must stay out — the only permissible
	// local activity begins after expiry.
	g, err := e.AcquireShard("wGhost")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	time.Sleep(100 * time.Millisecond) // half the TTL: worker still "live"
	select {
	case seed := <-runnerCalls:
		t.Fatalf("local executor ran seed %d while a remote worker was live", seed)
	default:
	}
	_ = g
	// Past the TTL the ghost's lease expires, liveness lapses, and the
	// local executor rescues the whole campaign.
	waitStatus(t, e, id, StatusDone)
	rep, err := e.Report(id)
	if err != nil || len(rep) == 0 {
		t.Fatalf("report after rescue: %v", err)
	}
}

// runnerFunc adapts a function to the Runner interface.
type runnerFunc func(ctx context.Context, spec *Spec, it Item) (ItemResult, error)

func (f runnerFunc) Run(ctx context.Context, spec *Spec, it Item) (ItemResult, error) {
	return f(ctx, spec, it)
}

// TestProgressShowsLeases: /progress (Engine.Get) reports per-shard worker
// assignment, lease age and state, so an operator can tell a stuck shard
// from a slow one.
func TestProgressShowsLeases(t *testing.T) {
	e, err := Open(Options{StateDir: t.TempDir(), Jobs: 1, DisableLocal: true,
		LeaseTTL: time.Minute,
		Runner:   stubRunner{sigFor: func(int64) string { return "" }}})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer e.Close()
	id, err := e.Submit(&Spec{Tool: "fuzz", Knobs: cliflags.Knobs{N: 4, Seed: 1}, Shards: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	s, _ := e.Get(id)
	for _, sh := range s.Shards {
		if sh.State != ShardPending {
			t.Fatalf("shard %d state %q before any lease, want pending", sh.Shard, sh.State)
		}
	}
	g, err := e.AcquireShard("wOp")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	s, _ = e.Get(id)
	var leasedSeen bool
	for _, sh := range s.Shards {
		if sh.Shard == g.Shard {
			leasedSeen = true
			if sh.State != ShardLeased || sh.Worker != "wOp" || sh.Token != g.Token {
				t.Fatalf("leased shard status wrong: %+v", sh)
			}
			if sh.LeaseAgeMS <= 0 {
				t.Fatalf("lease age %dms, want > 0", sh.LeaseAgeMS)
			}
		}
	}
	if !leasedSeen {
		t.Fatal("leased shard missing from progress")
	}

	// Finish it: state flips to done and the lease fields clear.
	var entries []journalEntry
	for _, it := range g.Items {
		entries = append(entries, mkEntry(it.Index, it.Seed))
	}
	if err := e.CompleteShard("wOp", id, g.Shard, g.Token, entries, ""); err != nil {
		t.Fatalf("complete: %v", err)
	}
	s, _ = e.Get(id)
	for _, sh := range s.Shards {
		if sh.Shard == g.Shard && (sh.State != ShardDone || sh.Worker != "") {
			t.Fatalf("completed shard status wrong: %+v", sh)
		}
	}
}

// TestHTTPLeaseEndpoints drives the wire surface: lease grant JSON, 204 on
// empty queue, heartbeat renewal, fenced complete as 409, and the healthz
// worker count.
func TestHTTPLeaseEndpoints(t *testing.T) {
	e, err := Open(Options{StateDir: t.TempDir(), Jobs: 1, DisableLocal: true,
		LeaseTTL: time.Minute,
		Runner:   stubRunner{sigFor: func(int64) string { return "" }}})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer e.Close()
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	post := func(path, body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, buf.String()
	}

	// Empty queue: 204.
	if resp, _ := post("/api/v1/lease", `{"worker":"w1"}`); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("lease on empty queue: %d, want 204", resp.StatusCode)
	}
	// Reserved/missing worker IDs: 400.
	if resp, _ := post("/api/v1/lease", `{"worker":"local"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reserved worker id: %d, want 400", resp.StatusCode)
	}
	if resp, _ := post("/api/v1/lease", `{}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing worker id: %d, want 400", resp.StatusCode)
	}

	id, err := e.Submit(&Spec{Tool: "fuzz", Knobs: cliflags.Knobs{N: 2, Seed: 5}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	resp, body := post("/api/v1/lease", `{"worker":"w1"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease: %d: %s", resp.StatusCode, body)
	}
	var grant LeaseGrant
	if err := json.Unmarshal([]byte(body), &grant); err != nil {
		t.Fatalf("grant decode: %v", err)
	}
	if grant.Campaign != id || grant.Token == 0 || grant.TTLMS <= 0 ||
		len(grant.Items) != 2 || grant.Spec == nil || grant.Spec.Seed != 5 {
		t.Fatalf("grant malformed: %+v", grant)
	}

	// Heartbeat with one streamed entry.
	hb := fmt.Sprintf(`{"worker":"w1","campaign":"%s","shard":0,"token":%d,"entries":[{"i":0,"line":{"seed":5,"status":"ok"}}]}`,
		id, grant.Token)
	if resp, body := post("/api/v1/heartbeat", hb); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, "ttl_ms") {
		t.Fatalf("heartbeat: %d %s", resp.StatusCode, body)
	}

	// Fenced verbs: bogus token gets 409.
	bogus := fmt.Sprintf(`{"worker":"w2","campaign":"%s","shard":0,"token":%d}`, id, grant.Token+999)
	if resp, _ := post("/api/v1/heartbeat", bogus); resp.StatusCode != http.StatusConflict {
		t.Fatalf("bogus heartbeat: %d, want 409", resp.StatusCode)
	}
	if resp, _ := post("/api/v1/complete", bogus); resp.StatusCode != http.StatusConflict {
		t.Fatalf("bogus complete: %d, want 409", resp.StatusCode)
	}

	// Healthz counts the live worker.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	hresp.Body.Close()
	if health.Status != "ok" || health.Workers < 1 {
		t.Fatalf("healthz: %+v, want ok with >=1 worker", health)
	}

	// Honest complete finishes the campaign over the wire.
	done := fmt.Sprintf(`{"worker":"w1","campaign":"%s","shard":0,"token":%d,"entries":[{"i":0,"line":{"seed":5,"status":"ok"}},{"i":1,"line":{"seed":6,"status":"ok"}}]}`,
		id, grant.Token)
	if resp, body := post("/api/v1/complete", done); resp.StatusCode != http.StatusOK {
		t.Fatalf("complete: %d %s", resp.StatusCode, body)
	}
	waitStatus(t, e, id, StatusDone)
}

// TestSplitEntryBatches pins the batching that keeps worker uploads under
// the coordinator's request cap: batches respect the size limit, preserve
// order, drop nothing, and an empty input still yields the one empty batch
// that carries a bare lease renewal.
func TestSplitEntryBatches(t *testing.T) {
	if got := splitEntryBatches(nil, 100); len(got) != 1 || got[0] != nil {
		t.Fatalf("empty input: %v, want one empty batch", got)
	}

	var entries []journalEntry
	for i := 0; i < 10; i++ {
		entries = append(entries, mkEntry(i, int64(i)))
	}
	one, _ := json.Marshal(entries[0])
	limit := 3 * (len(one) + 1) // ~3 entries per batch

	batches := splitEntryBatches(entries, limit)
	if len(batches) < 3 {
		t.Fatalf("10 entries under a 3-entry budget split into %d batches", len(batches))
	}
	var flat []journalEntry
	for _, b := range batches {
		size := 0
		for _, e := range b {
			enc, _ := json.Marshal(e)
			size += len(enc) + 1
		}
		if size > limit {
			t.Fatalf("batch of %d entries encodes to %d bytes, over the %d limit", len(b), size, limit)
		}
		flat = append(flat, b...)
	}
	if len(flat) != len(entries) {
		t.Fatalf("batches hold %d entries, want %d", len(flat), len(entries))
	}
	for i := range flat {
		if flat[i].Index != entries[i].Index {
			t.Fatalf("entry %d reordered: got index %d", i, flat[i].Index)
		}
	}

	// One entry over the limit still travels (its own batch).
	big := splitEntryBatches(entries[:1], 1)
	if len(big) != 1 || len(big[0]) != 1 {
		t.Fatalf("oversized single entry: %v", big)
	}
}

// TestBackoffDelayExhaustedFallsBackToPoll: a caller-supplied bounded retry
// policy must not make the lease loop spin hot once its attempt budget is
// spent — the worker holds at the poll cadence instead.
func TestBackoffDelayExhaustedFallsBackToPoll(t *testing.T) {
	opts := WorkerOptions{Poll: 123 * time.Millisecond,
		Retry: retry.Policy{Base: 10 * time.Millisecond, Attempts: 1}}
	w := &worker{opts: opts, backoff: retry.New(opts.Retry, 1)}
	if d := w.backoffDelay(); d != 10*time.Millisecond {
		t.Fatalf("first delay %v, want the policy base", d)
	}
	for i := 0; i < 3; i++ {
		if d := w.backoffDelay(); d != opts.Poll {
			t.Fatalf("exhausted delay %v, want poll interval %v", d, opts.Poll)
		}
	}
}
