package recycle

import (
	"sync"
	"testing"
)

type holder struct{ buf []uint64 }

func TestSlicesHandBackWhatWasPut(t *testing.T) {
	var free Slices[uint64]
	if got := free.Get(100); len(got) != 100 {
		t.Fatalf("an empty list must make a slice of the length asked for, got %d", len(got))
	}
	if got := free.Get(0); len(got) != 0 {
		t.Fatalf("Get(0) = %d elements", len(got))
	}

	// A length of another size class, and another length of the same class,
	// are never handed out in place of the one asked for.
	h := &holder{buf: make([]uint64, 100)}
	free.Put(&h.buf)
	if got := free.Get(1000); len(got) != 1000 {
		t.Fatalf("Get(1000) = %d elements", len(got))
	}
	if got := free.Get(101); len(got) != 101 {
		t.Fatalf("Get(101) = %d elements", len(got))
	}
}

// TestSlicesRecycleWithoutAllocating: a Put of a field of a live object
// followed by a Get of the same length allocates nothing — which also shows
// that Get handed the array back rather than making one — and a Put empties
// the field it was given.
func TestSlicesRecycleWithoutAllocating(t *testing.T) {
	var free Slices[uint64]
	h := &holder{buf: make([]uint64, 512)}
	n := testing.AllocsPerRun(100, func() {
		free.Put(&h.buf)
		h.buf = free.Get(512)
	})
	if n != 0 {
		t.Fatalf("a Put/Get round trip allocates %v objects", n)
	}
	free.Put(&h.buf)
	if h.buf != nil {
		t.Fatalf("Put must empty the field it was given, it still holds %d elements", len(h.buf))
	}
}

// TestListsAreBounded: a list holds listCap elements at most; a full one lets
// its oldest go, so a slice length nobody asks for any more cannot keep newer
// ones out; and Drain empties every list.
func TestListsAreBounded(t *testing.T) {
	var objs Objects[int]
	for i := 0; i < listCap+10; i++ {
		objs.Put(new(int))
	}
	n := 0
	for objs.Get() != nil {
		n++
	}
	if n != listCap {
		t.Fatalf("an Objects list gave back %d objects, its capacity is %d", n, listCap)
	}

	var free Slices[uint64]
	for i := 0; i < listCap; i++ {
		h := &holder{buf: make([]uint64, 7)}
		free.Put(&h.buf)
	}
	h := &holder{buf: make([]uint64, 9)}
	h.buf[3] = 1
	kept := h.buf
	free.Put(&h.buf)
	if got := free.Get(9); &got[0] != &kept[0] || got[3] != 0 {
		t.Fatalf("a full list must make room for the newest slice and zero it")
	}
	n = 0
	for free.take(7) != nil {
		n++
	}
	if n != listCap-1 {
		t.Fatalf("a full Slices list gave back %d of the old slices, want %d", n, listCap-1)
	}

	objs.Put(new(int))
	h = &holder{buf: make([]uint64, 7)}
	free.Put(&h.buf)
	Drain()
	if objs.Get() != nil || free.take(7) != nil {
		t.Fatalf("Drain left something on a list")
	}
}

// TestSlicesConcurrent is for the race detector: two workers release and
// build sessions at once.
func TestSlicesConcurrent(t *testing.T) {
	var free Slices[uint64]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				h := &holder{buf: free.Get(64 << (i % 3))}
				for j := range h.buf {
					if h.buf[j] != 0 {
						t.Errorf("a recycled slice is not zero at %d", j)
						return
					}
					h.buf[j] = uint64(g + 1)
				}
				free.Put(&h.buf)
			}
		}(g)
	}
	wg.Wait()
}
