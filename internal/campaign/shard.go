package campaign

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xt910/internal/sched"
)

// shardLink is a running shard's line to the coordinator that leased it.
// There are two: httpLink (worker.go) speaks the wire protocol to a remote
// coordinator, localLink (engine.go) calls the engine it lives in.
type shardLink interface {
	// deliver takes one finished item's entry. runShard calls it serially.
	deliver(en journalEntry)
	// renew extends the lease. It reports false once the token is fenced
	// off: the shard is someone else's and must be abandoned. A failure that
	// may pass (a partition, a draining coordinator) is the link's to log
	// and retry on the next beat.
	renew(ctx context.Context) bool
	// complete offers the finished shard to the coordinator, or the error of
	// its first failing item.
	complete(ctx context.Context, itemErr error)
}

// runShard executes one leased shard, and is the only code in the package
// that does: the grant's not-yet-journaled items run on a sched pool of the
// given width, every finished entry goes to the link as its item ends, the
// lease is renewed every TTL/3, and the link completes the shard once the
// pool drains. A fenced-off renewal cancels the run mid-shard. When ctx ends
// first runShard just returns: the lease is the caller's to requeue (the
// coordinator draining) or to let age out (a worker shutting down).
func runShard(ctx context.Context, g *LeaseGrant, runner Runner, width int, link shardLink) {
	ttl := time.Duration(g.TTLMS) * time.Millisecond
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	done := make(map[int]bool, len(g.Done))
	for _, i := range g.Done {
		done[i] = true
	}
	var pending []Item
	for _, it := range g.Items {
		if !done[it.Index] {
			pending = append(pending, it)
		}
	}

	shardCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var fenced atomic.Bool // set by the heartbeat loop before it cancels
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-shardCtx.Done():
				return
			case <-t.C:
			}
			if !link.renew(shardCtx) {
				fenced.Store(true)
				cancel()
				return
			}
		}
	}()

	jobs := make([]sched.Job, len(pending))
	for j, it := range pending {
		it := it
		jobs[j] = sched.Job{
			ID: fmt.Sprintf("%s/shard%d/%s", g.Campaign, g.Shard, it.Key()),
			Run: func(jctx context.Context) (any, error) {
				return runner.Run(jctx, g.Spec, it)
			},
		}
	}
	rs := sched.Run(shardCtx, jobs, sched.Options{
		Workers: width,
		OnResult: func(j int, r sched.Result) {
			if r.Err != nil {
				return // cancellation or item failure: nothing durable to record
			}
			res := r.Value.(ItemResult)
			link.deliver(journalEntry{Index: pending[j].Index, Line: res.Line,
				Div: res.Div, Instrs: r.Instrs})
		},
	})
	cancel()
	hb.Wait()

	if ctx.Err() != nil {
		return
	}
	itemErr := sched.FirstError(rs)
	if fenced.Load() && itemErr != nil {
		// Abandoned mid-run by the heartbeat loop: nothing to offer. (With
		// itemErr == nil every item finished before the cancel landed — offer
		// the completion anyway; the token check decides.)
		return
	}
	link.complete(ctx, itemErr)
}
