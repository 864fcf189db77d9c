// Package recycle provides the free lists behind session storage recycling
// (DESIGN.md "Session storage recycling"): a cosim session that nobody else
// can see hands the large backing arrays of its models back when it is
// released, and the next session's constructors pick them up instead of
// allocating and clearing fresh ones.
//
// The contract is zero-at-release: whatever is on a list is in the state make
// or new would return it in, so a constructor treats a recycled array and a
// fresh one alike and stays the only definition of its component's initial
// state. Each list is owned by the package that allocates
// the storage; this package only supplies the mechanism.
//
// A list is a fixed array under a mutex, not a sync.Pool: a pool is emptied
// by the garbage collector and kept per P, so whether a constructor found an
// array — and with it the number of objects a run allocates and the time it
// takes — depended on when a collection happened to fall and on which P a
// goroutine ran. What a list holds here depends only on the Puts and Gets
// made, it allocates nothing ever, and it keeps at most its capacity alive.
package recycle

import (
	"sync"
	"sync/atomic"
)

// listCap bounds every list: a campaign process runs up to four sessions at
// once, a two-hart session holds five cache line arrays, and a fuzz session
// touches at most 16 of mem's 4 KB pages in its two memories.
const listCap = 64

// epoch counts the Drains: a list that finds it moved on forgets what it holds.
var epoch atomic.Uint64

// Drain empties every list, for a test that must start from storage nothing
// has used before. A list notices the next time it is touched.
func Drain() { epoch.Add(1) }

// list is the mechanism under both kinds of free list: up to listCap elements,
// oldest first.
type list[E any] struct {
	mu    sync.Mutex
	epoch uint64
	n     int
	items [listCap]E
}

// lock takes the mutex and, if Drain ran since the list was last touched,
// forgets what the list holds.
func (l *list[E]) lock() {
	l.mu.Lock()
	if e := epoch.Load(); l.epoch != e {
		clear(l.items[:l.n])
		l.n, l.epoch = 0, e
	}
}

// push adds e as the newest element. A full list lets its oldest go, so
// storage nobody asks for any more cannot keep newer storage out.
func (l *list[E]) push(e E) {
	if l.n == len(l.items) {
		copy(l.items[:], l.items[1:])
		l.n--
	}
	l.items[l.n] = e
	l.n++
}

// remove takes element i out and keeps the order of the rest.
func (l *list[E]) remove(i int) E {
	e := l.items[i]
	copy(l.items[i:l.n], l.items[i+1:l.n])
	l.n--
	var none E
	l.items[l.n] = none
	return e
}

// Objects is a bounded free list of *T, safe for concurrent use. The zero
// value is ready to use.
type Objects[T any] struct{ free list[*T] }

// Get returns the most recently released object, or nil when the list has
// none.
func (o *Objects[T]) Get() *T {
	o.free.lock()
	defer o.free.mu.Unlock()
	if o.free.n == 0 {
		return nil
	}
	return o.free.remove(o.free.n - 1)
}

// Put hands p to the list.
func (o *Objects[T]) Put(p *T) {
	o.free.lock()
	defer o.free.mu.Unlock()
	o.free.push(p)
}

// Slices is a bounded free list of []T backing arrays of any mix of lengths,
// safe for concurrent use. The zero value is ready to use.
type Slices[T any] struct{ free list[[]T] }

// Get returns an all-zero slice of length n: the most recently released one
// of exactly that length when the list holds one, a fresh one otherwise.
func (s *Slices[T]) Get(n int) []T {
	if buf := s.take(n); buf != nil {
		return buf
	}
	return make([]T, n)
}

// take removes and returns the newest slice of length n, or nil.
func (s *Slices[T]) take(n int) []T {
	s.free.lock()
	defer s.free.mu.Unlock()
	for i := s.free.n - 1; i >= 0; i-- {
		if len(s.free.items[i]) == n {
			return s.free.remove(i)
		}
	}
	return nil
}

// Put zeroes the slice *p, hands it to the list and empties *p, the field it
// lived in, so that its owner cannot go on using it by mistake.
func (s *Slices[T]) Put(p *[]T) {
	clear(*p)
	s.PutZeroed(p)
}

// PutZeroed is Put for an owner that knows which elements it dirtied and has
// already zeroed them: every element must be zero.
func (s *Slices[T]) PutZeroed(p *[]T) {
	buf := *p
	*p = nil
	if len(buf) == 0 {
		return
	}
	s.free.lock()
	defer s.free.mu.Unlock()
	s.free.push(buf)
}
