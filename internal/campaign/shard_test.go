package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"xt910/internal/cliflags"
)

const rigTTL = 150 * time.Millisecond

// shardRig is a coordinator whose shards the test runs itself, one at a time,
// through one link: "inproc" makes the two calls the dispatcher makes for a
// shard (grant, runLocal), "http" the two RunWorker makes (lease, run)
// against the real handler. Either way running a shard is a synchronous
// call, so a scenario knows what the journal must hold when it returns. The
// coordinator's clock is frozen: a lease expires only when a scenario
// advances it.
type shardRig struct {
	t    *testing.T
	link string
	e    *Engine
	dir  string
	id   string
	clk  *fakeClock

	w      *worker // http only
	ctx    context.Context
	cancel context.CancelFunc
}

func newShardRig(t *testing.T, link string, runner Runner, spec *Spec) *shardRig {
	t.Helper()
	r := &shardRig{t: t, link: link, dir: t.TempDir(), clk: newFakeClock()}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	t.Cleanup(r.cancel)
	var err error
	r.e, err = Open(Options{StateDir: r.dir, Jobs: 1, DisableLocal: true, LeaseTTL: rigTTL,
		Runner: runner, clock: r.clk.Now, Logf: t.Logf})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(r.e.Close)
	if link == "http" {
		srv := httptest.NewServer(NewHandler(r.e))
		t.Cleanup(srv.Close)
		r.w, err = newWorker(WorkerOptions{Coordinator: srv.URL, ID: "w1", Jobs: 1,
			Runner: runner, Client: srv.Client(), Logf: t.Logf})
		if err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if r.id, err = r.e.Submit(spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	return r
}

// runNext leases the oldest pending shard and runs it to the end through the
// rig's link, reporting false when nothing was pending. An edit doctors the
// grant first.
func (r *shardRig) runNext(edit ...func(*LeaseGrant)) bool {
	var g *LeaseGrant
	var st *state
	var err error
	if r.link == "inproc" {
		g, st, _ = r.e.grant(localWorkerID)
	} else if g, err = r.w.lease(r.ctx); err != nil {
		r.t.Errorf("lease: %v", err)
	}
	if g == nil {
		return false
	}
	for _, f := range edit {
		f(g)
	}
	if r.link == "inproc" {
		r.e.runLocal(g, st)
	} else {
		r.w.run(r.ctx, g)
	}
	return true
}

// start runs the next shard on a goroutine of its own; the returned channel
// yields runNext's result when the executor has let go of the shard.
func (r *shardRig) start() <-chan bool {
	ran := make(chan bool, 1)
	go func() { ran <- r.runNext() }()
	return ran
}

// journal is a shard journal's contents ("" while it does not exist).
func (r *shardRig) journal(shard int) string {
	r.t.Helper()
	b, err := os.ReadFile(shardJournalPath(filepath.Join(r.dir, r.id), shard))
	if err != nil && !os.IsNotExist(err) {
		r.t.Fatalf("journal: %v", err)
	}
	return string(b)
}

func (r *shardRig) status() Status {
	s, _ := r.e.Get(r.id)
	return s
}

// rowStub is the runner the scenarios wrap: seed 4 diverges, the rest finish
// clean.
var rowStub = stubRunner{sigFor: func(seed int64) string {
	if seed == 4 {
		return "xreg/x9/div"
	}
	return ""
}}

// stubEntry is the entry rowStub's result for manifest index idx becomes (the
// scenarios' seeds start at 1).
func stubEntry(idx int) journalEntry {
	res, _ := rowStub.Run(context.Background(), nil, Item{Index: idx, Seed: int64(idx + 1)})
	return journalEntry{Index: idx, Line: res.Line, Div: res.Div}
}

// journalOf is the journal holding exactly the given items, in that order.
func journalOf(idxs ...int) string {
	var sb strings.Builder
	for _, i := range idxs {
		b, _ := json.Marshal(stubEntry(i))
		sb.Write(b)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func seeds(n, shards int) *Spec {
	return &Spec{Tool: "fuzz", Knobs: cliflags.Knobs{N: n, Seed: 1}, Shards: shards}
}

// TestShardScenarios is the contract of runShard, checked once per link: each
// scenario expects the same journal bytes and the same status from both.
func TestShardScenarios(t *testing.T) {
	scenarios := []struct {
		name string
		play func(t *testing.T, link string)
	}{
		{"clean completion", playClean},
		{"failing item fails the campaign", playFailingItem},
		{"fenced lease abandons the shard", playFenced},
		{"drain mid-shard leaves a resumable journal", playDrain},
		{"complete with an item missing requeues", playMissingItem},
	}
	for _, sc := range scenarios {
		for _, link := range []string{"inproc", "http"} {
			sc, link := sc, link
			t.Run(sc.name+"/"+link, func(t *testing.T) {
				t.Parallel()
				sc.play(t, link)
			})
		}
	}
}

func playClean(t *testing.T, link string) {
	r := newShardRig(t, link, rowStub, seeds(4, 2))
	if !r.runNext() || !r.runNext() || r.runNext() {
		t.Fatal("want exactly two shards to run")
	}
	if s := r.status(); s.Status != StatusDone || s.ItemsDone != 4 {
		t.Fatalf("status %+v, want done with 4 items", s)
	}
	if got, want := r.journal(0)+r.journal(1), journalOf(0, 1)+journalOf(2, 3); got != want {
		t.Fatalf("journals:\n%swant:\n%s", got, want)
	}
	rep, err := r.e.Report(r.id)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	var want strings.Builder
	for i := 0; i < 4; i++ {
		want.Write(stubEntry(i).Line)
		want.WriteByte('\n')
	}
	if string(rep) != want.String() {
		t.Fatalf("report:\n%swant:\n%s", rep, want.String())
	}
	// The divergence reached the corpus whichever way it travelled, and only a
	// remote worker counts as live.
	divs, err := r.e.Divergences(r.id)
	if err != nil || len(divs) != 1 || divs[0].Seed != 4 {
		t.Fatalf("divergences: %v %+v", err, divs)
	}
	if c := r.e.Corpus().Entries(); len(c) != 1 || c[0].Signature != "xreg/x9/div" {
		t.Fatalf("corpus: %+v", c)
	}
	if got, want := r.e.WorkerCount(), map[string]int{"inproc": 0, "http": 1}[link]; got != want {
		t.Fatalf("live workers %d, want %d", got, want)
	}
}

// playFailingItem: an item's error reaches the coordinator and fails the
// campaign, the item finished before it stays journaled, and the remaining
// shard is withdrawn. (Regression, HTTP: the worker once mistook its own
// post-run cancel for a fencing abandon and never reported item errors,
// leaving the shard in an expiry/requeue loop forever.)
func playFailingItem(t *testing.T, link string) {
	failing := runnerFunc(func(ctx context.Context, spec *Spec, it Item) (ItemResult, error) {
		if it.Seed == 2 {
			return ItemResult{}, errors.New("runner exploded on seed 2")
		}
		return rowStub.Run(ctx, spec, it)
	})
	r := newShardRig(t, link, failing, seeds(4, 2))
	if !r.runNext() {
		t.Fatal("nothing to run")
	}
	if s := r.status(); s.Status != StatusFailed || !strings.Contains(s.Error, "runner exploded on seed 2") {
		t.Fatalf("status %+v, want failed with the item's error", s)
	}
	if got, want := r.journal(0)+r.journal(1), journalOf(0); got != want {
		t.Fatalf("journals:\n%swant:\n%s", got, want)
	}
	if r.runNext() {
		t.Fatal("failed campaign still dispatching")
	}
}

// playFenced: the lease expires mid-shard and is granted to someone else.
// The executor that lost it must stop writing at once — its next finished
// item gains no journal line — and give the shard up; the new holder's
// completion is the one that counts.
func playFenced(t *testing.T, link string) {
	gate := make(chan struct{})
	gated := runnerFunc(func(ctx context.Context, spec *Spec, it Item) (ItemResult, error) {
		if it.Seed == 2 {
			<-gate // not ctx: the item finishes after the lease is lost, whatever happens
		}
		return rowStub.Run(ctx, spec, it)
	})
	r := newShardRig(t, link, gated, seeds(3, 1))
	ran := r.start()
	waitItemsDone(t, r.e, r.id, 1)

	r.clk.Advance(2 * rigTTL)
	thief, err := r.e.AcquireShard("thief")
	if err != nil {
		t.Fatalf("re-grant: %v", err)
	}
	if !reflect.DeepEqual(thief.Done, []int{0}) {
		t.Fatalf("re-grant done list %v, want [0]", thief.Done)
	}
	close(gate)
	select {
	case <-ran:
	case <-time.After(30 * time.Second):
		t.Fatal("executor never let go of the fenced shard")
	}
	if got, want := r.journal(0), journalOf(0); got != want {
		t.Fatalf("journal after the lease was lost:\n%swant:\n%s", got, want)
	}
	if s := r.status(); s.ItemsDone != 1 || s.Status != StatusRunning {
		t.Fatalf("status %+v, want running with 1 item", s)
	}

	if err := r.e.CompleteShard("thief", r.id, 0, thief.Token,
		[]journalEntry{stubEntry(1), stubEntry(2)}, ""); err != nil {
		t.Fatalf("new holder's complete: %v", err)
	}
	if s := r.status(); s.Status != StatusDone {
		t.Fatalf("status %+v, want done", s)
	}
	if got, want := r.journal(0), journalOf(0, 1, 2); got != want {
		t.Fatalf("final journal:\n%swant:\n%s", got, want)
	}
}

// playDrain: a shard cut short by shutdown leaves exactly its finished items
// journaled, and a fresh engine over the same directory finishes the
// campaign without running them again.
func playDrain(t *testing.T, link string) {
	parked := runnerFunc(func(ctx context.Context, spec *Spec, it Item) (ItemResult, error) {
		if it.Seed == 2 {
			<-ctx.Done()
			return ItemResult{}, ctx.Err()
		}
		return rowStub.Run(ctx, spec, it)
	})
	r := newShardRig(t, link, parked, seeds(3, 1))
	ran := r.start()
	waitItemsDone(t, r.e, r.id, 1)
	r.cancel()  // the worker shuts down
	r.e.Close() // and the coordinator drains
	<-ran
	if got, want := r.journal(0), journalOf(0); got != want {
		t.Fatalf("journal after drain:\n%swant:\n%s", got, want)
	}
	if s := r.status(); s.Status == StatusDone || s.Status == StatusFailed {
		t.Fatalf("status %+v after drain, want unfinished", s)
	}

	var mu sync.Mutex
	var reran []int64
	e2, err := Open(Options{StateDir: r.dir, Jobs: 1,
		Runner: runnerFunc(func(ctx context.Context, spec *Spec, it Item) (ItemResult, error) {
			mu.Lock()
			reran = append(reran, it.Seed)
			mu.Unlock()
			return rowStub.Run(ctx, spec, it)
		})})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e2.Close()
	waitStatus(t, e2, r.id, StatusDone)
	if got, want := r.journal(0), journalOf(0, 1, 2); got != want {
		t.Fatalf("journal after resume:\n%swant:\n%s", got, want)
	}
	if !reflect.DeepEqual(reran, []int64{2, 3}) {
		t.Fatalf("resume ran seeds %v, want [2 3]", reran)
	}
}

// playMissingItem: a completion whose journal does not cover the shard (here
// a buggy executor that believes item 1 is already done) must not wedge the
// campaign — the shard requeues and an honest second run finishes it.
func playMissingItem(t *testing.T, link string) {
	r := newShardRig(t, link, rowStub, seeds(3, 1))
	if !r.runNext(func(g *LeaseGrant) { g.Done = append(g.Done, 1) }) {
		t.Fatal("nothing to run")
	}
	if s := r.status(); s.Status != StatusRunning || s.ItemsDone != 2 || s.Shards[0].State != ShardPending {
		t.Fatalf("status %+v, want running, 2 items, shard pending again", s)
	}
	if !r.runNext(func(g *LeaseGrant) {
		if !reflect.DeepEqual(g.Done, []int{0, 2}) {
			t.Errorf("re-grant done list %v, want [0 2]", g.Done)
		}
	}) {
		t.Fatal("shard was not requeued")
	}
	if s := r.status(); s.Status != StatusDone {
		t.Fatalf("status %+v, want done", s)
	}
	if got, want := r.journal(0), journalOf(0, 2, 1); got != want {
		t.Fatalf("journal:\n%swant:\n%s", got, want)
	}
}
