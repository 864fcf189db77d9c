package campaign

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable, mutex-guarded registry clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testRegistry(t *testing.T, ttl time.Duration) (*leaseRegistry, *fakeClock) {
	t.Helper()
	fence, err := openFence(filepath.Join(t.TempDir(), "fence"))
	if err != nil {
		t.Fatalf("openFence: %v", err)
	}
	clk := newFakeClock()
	return newLeaseRegistry(ttl, clk.Now, fence), clk
}

// TestLeaseExpiryRequeues: a lease whose worker stops heartbeating expires
// and the shard goes back to the pending queue, where a second worker can
// acquire it under a strictly larger token.
func TestLeaseExpiryRequeues(t *testing.T) {
	lr, clk := testRegistry(t, 10*time.Second)
	ref := shardRef{Campaign: "c0001", Shard: 0}
	lr.Enqueue(ref)

	l1, err := lr.Acquire("wA")
	if err != nil || l1.ref != ref {
		t.Fatalf("acquire: %v %+v", err, l1)
	}
	if _, err := lr.Acquire("wB"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("second acquire while leased: %v, want ErrNoWork", err)
	}

	// Heartbeats keep it alive across the TTL boundary.
	clk.Advance(8 * time.Second)
	if _, err := lr.Renew(ref, l1.token); err != nil {
		t.Fatalf("renew within ttl: %v", err)
	}
	clk.Advance(8 * time.Second)
	if !lr.Holds(ref, l1.token) {
		t.Fatal("renewed lease not held")
	}

	// Silence past the TTL: the shard requeues.
	clk.Advance(11 * time.Second)
	expired := lr.ExpireStale()
	if len(expired) != 1 || expired[0].token != l1.token {
		t.Fatalf("expire: %+v", expired)
	}
	if lr.Pending() != 1 {
		t.Fatalf("expired shard not requeued: pending=%d", lr.Pending())
	}
	l2, err := lr.Acquire("wB")
	if err != nil {
		t.Fatalf("re-acquire: %v", err)
	}
	if l2.token <= l1.token {
		t.Fatalf("re-grant token %d not larger than %d", l2.token, l1.token)
	}
	// The zombie's renew and complete are both fenced off.
	if _, err := lr.Renew(ref, l1.token); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie renew: %v, want ErrLeaseLost", err)
	}
	if err := lr.Complete(ref, l1.token); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie complete: %v, want ErrLeaseLost", err)
	}
	// The live holder completes cleanly, exactly once.
	if err := lr.Complete(ref, l2.token); err != nil {
		t.Fatalf("live complete: %v", err)
	}
	if err := lr.Complete(ref, l2.token); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("double complete: %v, want ErrLeaseLost", err)
	}
}

// TestLeaseZombieCompleteAfterExpiryWithoutRegrant: even when nobody has
// re-acquired the shard yet, an expired lease's complete is rejected — the
// expiry already moved the shard to pending, and accepting would mark a
// possibly part-run shard done.
func TestLeaseZombieCompleteAfterExpiryWithoutRegrant(t *testing.T) {
	lr, clk := testRegistry(t, time.Second)
	ref := shardRef{Campaign: "c0001", Shard: 3}
	lr.Enqueue(ref)
	l, err := lr.Acquire("wA")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if err := lr.Complete(ref, l.token); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("expired complete: %v, want ErrLeaseLost", err)
	}
	if lr.Pending() != 1 {
		t.Fatalf("shard lost: pending=%d", lr.Pending())
	}
}

// TestLeaseRemoveCampaign: Remove drops a campaign's pending and leased
// shards while leaving other campaigns intact.
func TestLeaseRemoveCampaign(t *testing.T) {
	lr, _ := testRegistry(t, time.Minute)
	a0 := shardRef{Campaign: "c0001", Shard: 0}
	a1 := shardRef{Campaign: "c0001", Shard: 1}
	b0 := shardRef{Campaign: "c0002", Shard: 0}
	lr.Enqueue(a0)
	lr.Enqueue(a1)
	lr.Enqueue(b0)
	l, err := lr.Acquire("w") // takes a0 (FIFO)
	if err != nil || l.ref != a0 {
		t.Fatalf("acquire: %v %+v", err, l)
	}
	lr.Remove("c0001")
	if lr.Holds(a0, l.token) {
		t.Fatal("removed campaign's lease survived")
	}
	got, err := lr.Acquire("w")
	if err != nil || got.ref != b0 {
		t.Fatalf("acquire after remove: %v %+v, want c0002/0", err, got)
	}
	if _, err := lr.Acquire("w"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("registry not empty after remove: %v", err)
	}
}

// TestLeaseDoubleLeaseImpossible hammers the registry from many goroutines —
// acquire, renew, complete, expiry, clock advance all racing — and asserts
// the core invariant: at no instant do two unexpired leases exist for one
// shard, observed as strictly increasing grant tokens per shard with no
// overlap in holder accounting. Run under -race by the chaos smoke.
func TestLeaseDoubleLeaseImpossible(t *testing.T) {
	lr, clk := testRegistry(t, 5*time.Millisecond)
	const shards = 8
	refs := make([]shardRef, shards)
	for i := range refs {
		refs[i] = shardRef{Campaign: "c0001", Shard: i}
		lr.Enqueue(refs[i])
	}

	var held sync.Map // shardRef -> token of current holder (test-side shadow)
	// grants is the last token seen per shard. grantMu spans Acquire and the
	// check, so grants are observed in the order the registry made them.
	var grantMu sync.Mutex
	grants := map[shardRef]uint64{}
	var wg, clockWG sync.WaitGroup
	stop := make(chan struct{})

	// Clock driver: leases constantly age out mid-flight.
	clockWG.Add(1)
	go func() {
		defer clockWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clk.Advance(time.Millisecond)
				lr.ExpireStale()
			}
		}
	}()

	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			worker := string(rune('A' + id))
			for i := 0; i < 2000; i++ {
				grantMu.Lock()
				l, err := lr.Acquire(worker)
				if err == nil {
					// Token strictly increases per shard: the previous
					// holder's grant can never be re-observed.
					if prev, ok := grants[l.ref]; ok && l.token <= prev {
						grantMu.Unlock()
						t.Errorf("shard %v: token %d not above prior grant %d", l.ref, l.token, prev)
						return
					}
					grants[l.ref] = l.token
				}
				grantMu.Unlock()
				if err != nil {
					if !errors.Is(err, ErrNoWork) {
						t.Errorf("acquire: %v", err)
						return
					}
					// Refill so the hammer keeps hammering.
					lr.Enqueue(refs[i%shards])
					continue
				}
				// Shadow holder map: a successful swap-in means nobody else
				// currently *thinks* they validly hold this shard. A second
				// live lease would manifest as two goroutines passing Holds
				// for different tokens; Holds requires exact token equality
				// on the single registry record, so only one can.
				if lr.Holds(l.ref, l.token) {
					held.Store(l.ref, l.token)
				}
				// Half the holders complete, half go silent (simulated
				// death) and let the TTL reap the lease.
				if i%2 == 0 {
					if err := lr.Complete(l.ref, l.token); err != nil && !errors.Is(err, ErrLeaseLost) {
						t.Errorf("complete: %v", err)
						return
					}
					lr.Enqueue(l.ref)
				}
			}
		}(w)
	}
	// Let workers finish, then the clock driver.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("hammer deadlocked")
	}
	close(stop)
	clockWG.Wait()
}

// TestFenceCounterSurvivesRestart: tokens stay strictly increasing across a
// reopen, so a worker holding a pre-restart token can never collide with a
// post-restart grant.
func TestFenceCounterSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fence")
	f1, err := openFence(path)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 100; i++ {
		tk := f1.Next()
		if tk <= last && !(i == 0) {
			t.Fatalf("token %d not increasing past %d", tk, last)
		}
		last = tk
	}
	f2, err := openFence(path)
	if err != nil {
		t.Fatal(err)
	}
	if tk := f2.Next(); tk <= last {
		t.Fatalf("post-restart token %d collides with pre-restart %d", tk, last)
	}
}
