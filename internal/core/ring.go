package core

import "xt910/internal/recycle"

// ring is the fixed-capacity FIFO behind the IBUF, the ROB and the load and
// store queues: entries stay in program order, enter at the tail, leave from
// the head when they retire and from the tail when they are squashed. An
// entry keeps its slot for as long as it lives, so other structures refer to
// it by slot index (issue queues hold ROB slots, a µop holds its LQ/SQ slot).
// Indices wrap by compare; nothing here divides.
type ring[T any] struct {
	buf  []T
	head int // slot of the oldest entry
	n    int // live entries
}

// newRing builds a ring over an all-zero array from free (see release).
func newRing[T any](free *recycle.Slices[T], size int) ring[T] { return ring[T]{buf: free.Get(size)} }

// release hands the array back to free, every slot zero again. The ring must
// not be used afterwards.
func (r *ring[T]) release(free *recycle.Slices[T]) { free.Put(&r.buf) }

func (r *ring[T]) len() int    { return r.n }
func (r *ring[T]) empty() bool { return r.n == 0 }
func (r *ring[T]) full() bool  { return r.n == len(r.buf) }
func (r *ring[T]) room() int   { return len(r.buf) - r.n }

func (r *ring[T]) wrap(i int) int {
	if i >= len(r.buf) {
		return i - len(r.buf)
	}
	return i
}

// at returns the i-th oldest entry, 0 <= i < len().
func (r *ring[T]) at(i int) *T { return &r.buf[r.wrap(r.head+i)] }

// front returns the oldest entry; the ring must not be empty.
func (r *ring[T]) front() *T { return &r.buf[r.head] }

// slot returns the entry stored in slot s, live or not.
func (r *ring[T]) slot(s int) *T { return &r.buf[s] }

// live reports whether slot s currently holds an entry.
func (r *ring[T]) live(s int) bool {
	if s < 0 || s >= len(r.buf) {
		return false
	}
	pos := s - r.head
	if pos < 0 {
		pos += len(r.buf)
	}
	return pos < r.n
}

// tail returns the slot the next entry will occupy, for the caller to build
// the entry in place and then commit it; the ring must not be full. The slot
// holds its previous occupant's bytes, and the entry does not exist until
// commit.
func (r *ring[T]) tail() (s int, e *T) {
	s = r.wrap(r.head + r.n)
	return s, &r.buf[s]
}

func (r *ring[T]) commit() { r.n++ }

// push appends e and returns the slot it will keep.
func (r *ring[T]) push(e T) int {
	s, p := r.tail()
	*p = e
	r.n++
	return s
}

func (r *ring[T]) popFront() {
	r.head = r.wrap(r.head + 1)
	r.n--
}

func (r *ring[T]) dropBack() { r.n-- }

func (r *ring[T]) reset() { r.head, r.n = 0, 0 }
