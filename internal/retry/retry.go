// Package retry implements seeded exponential backoff with jitter for the
// distributed campaign protocol (coordinator ↔ worker HTTP). The delay
// sequence is a pure function of (Policy, seed), so tests can pin the exact
// schedule a worker will follow — determinism is the repo-wide contract and
// the retry layer is no exception.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// Policy shapes a backoff schedule. The zero value is not useful; Default()
// returns the campaign-protocol policy.
type Policy struct {
	// Base is the first delay (pre-jitter).
	Base time.Duration
	// Cap bounds every delay (pre-jitter). 0 means no cap.
	Cap time.Duration
	// Factor is the per-attempt growth multiplier; values below 1 are
	// treated as 2 (the conventional doubling).
	Factor float64
	// Jitter is the fraction of each delay randomized, in [0, 1]: the
	// emitted delay is d*(1-Jitter) + u*d*Jitter with u uniform in [0, 1).
	// 0 disables jitter entirely (fully deterministic schedule).
	Jitter float64
	// Attempts bounds how many times Next yields a delay; 0 means
	// unlimited.
	Attempts int
}

// Default is the policy the campaign worker uses for transient coordinator
// failures: quick first retry, capped at 2s so a partitioned worker re-probes
// the coordinator often enough to reclaim work soon after the partition
// heals, half-jittered so a worker fleet restarted together does not
// stampede.
func Default() Policy {
	return Policy{Base: 50 * time.Millisecond, Cap: 2 * time.Second, Factor: 2, Jitter: 0.5}
}

// Backoff yields the delay schedule of one retry loop. Not safe for
// concurrent use; each loop owns its Backoff.
type Backoff struct {
	p   Policy
	rng *rand.Rand
	n   int
}

// New returns a Backoff over p whose jitter stream is seeded: the same
// (p, seed) pair always yields the same delay sequence.
func New(p Policy, seed int64) *Backoff {
	if p.Factor < 1 {
		p.Factor = 2
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return &Backoff{p: p, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next delay, or false when the policy's attempt budget is
// exhausted.
func (b *Backoff) Next() (time.Duration, bool) {
	if b.p.Attempts > 0 && b.n >= b.p.Attempts {
		return 0, false
	}
	d := float64(b.p.Base)
	for i := 0; i < b.n; i++ {
		d *= b.p.Factor
		if b.p.Cap > 0 && d >= float64(b.p.Cap) {
			d = float64(b.p.Cap)
			break
		}
	}
	if b.p.Cap > 0 && d > float64(b.p.Cap) {
		d = float64(b.p.Cap)
	}
	b.n++
	if b.p.Jitter > 0 && d > 0 {
		u := float64(b.rng.Int63()) / float64(1<<63)
		d = d*(1-b.p.Jitter) + u*d*b.p.Jitter
	}
	return time.Duration(d), true
}

// Reset rewinds the attempt counter (the jitter stream keeps advancing, so a
// reset loop still never repeats a schedule).
func (b *Backoff) Reset() { b.n = 0 }

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops retrying and returns it (unwrapped).
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err was marked with Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Do runs f until it succeeds, returns a Permanent error, exhausts the
// policy's attempt budget, or ctx dies — sleeping the seeded backoff schedule
// between attempts. The attempt budget counts retries: Attempts=2 means f
// runs at most 3 times. Returns the last error (unwrapped when Permanent) or
// ctx.Err() when the context ends first.
func Do(ctx context.Context, p Policy, seed int64, f func() error) error {
	b := New(p, seed)
	for {
		err := f()
		if err == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return pe.err
		}
		d, ok := b.Next()
		if !ok {
			return err
		}
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}
