package mmu

import "xt910/internal/recycle"

// The XT-910 TLB hierarchy (§V-D): a fully-associative micro-TLB backed by a
// 4-way set-associative joint TLB. Every entry carries a page-size property;
// the jTLB is probed with the 4K index first, then 2M, then 1G. On a jTLB hit
// the entry is refilled into the micro-TLB; when all sizes miss, the hardware
// page-table walk is triggered.

// Entry is one translation held in a TLB.
type Entry struct {
	valid    bool
	vpnTag   uint64 // va >> pageBits
	asid     uint16
	global   bool
	pageBits uint
	ppn      uint64 // pa >> pageBits
	perms    uint8
	lru      uint64
}

func (e *Entry) match(va uint64, asid uint16) bool {
	return e.valid && e.vpnTag == va>>e.pageBits && (e.global || e.asid == asid)
}

// MicroTLB is the first-level fully-associative TLB. Lookups cost zero extra
// cycles on a hit.
type MicroTLB struct {
	entries []Entry
	tick    uint64
}

// NewMicroTLB returns a micro-TLB with n entries (XT-910 default: 32).
func NewMicroTLB(n int) *MicroTLB { return &MicroTLB{entries: make([]Entry, n)} }

// Lookup probes all entries in parallel (fully associative).
func (t *MicroTLB) Lookup(va uint64, asid uint16) (*Entry, bool) {
	t.tick++
	for i := range t.entries {
		if t.entries[i].match(va, asid) {
			t.entries[i].lru = t.tick
			return &t.entries[i], true
		}
	}
	return nil, false
}

// Insert refills a translation, evicting the least recently used entry.
func (t *MicroTLB) Insert(e Entry) {
	victim := 0
	for i := range t.entries {
		if !t.entries[i].valid {
			victim = i
			break
		}
		if t.entries[i].lru < t.entries[victim].lru {
			victim = i
		}
	}
	t.tick++
	e.lru = t.tick
	e.valid = true
	t.entries[victim] = e
}

// FlushAll invalidates every entry.
func (t *MicroTLB) FlushAll() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
}

// FlushASID invalidates all non-global entries for one ASID.
func (t *MicroTLB) FlushASID(asid uint16) {
	for i := range t.entries {
		if t.entries[i].valid && !t.entries[i].global && t.entries[i].asid == asid {
			t.entries[i].valid = false
		}
	}
}

// FlushVA invalidates entries covering a virtual address.
func (t *MicroTLB) FlushVA(va uint64) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpnTag == va>>e.pageBits {
			e.valid = false
		}
	}
}

// JointTLB is the second-level 4-way set-associative TLB. A single lookup can
// only use one kind of index at a time; Lookup probes 4K → 2M → 1G and
// reports how many probe rounds were needed (each costs extra cycles).
type JointTLB struct {
	ways    int
	sets    int
	entries []Entry // sets × ways
	tick    uint64
}

// NewJointTLB returns a joint TLB with the given total entry count and
// associativity (XT-910: 4-way, ~1K entries).
func NewJointTLB(entries, ways int) *JointTLB {
	sets := entries / ways
	if sets < 1 {
		sets = 1
	}
	return &JointTLB{ways: ways, sets: sets, entries: freeEntries.Get(sets * ways)}
}

// freeEntries recycles joint-TLB arrays between TLBs (see Release).
var freeEntries recycle.Slices[Entry]

// Release hands the entry array to the next NewJointTLB of the same size,
// every entry zero again. The TLB must not be used afterwards.
func (t *JointTLB) Release() { freeEntries.Put(&t.entries) }

var probeOrder = [3]uint{12, 21, 30}

func (t *JointTLB) set(va uint64, pageBits uint) []Entry {
	idx := (va >> pageBits) % uint64(t.sets)
	return t.entries[idx*uint64(t.ways) : (idx+1)*uint64(t.ways)]
}

// Lookup probes the three page sizes in order. probes reports the number of
// index types tried (1–3), which the core charges as extra lookup cycles.
func (t *JointTLB) Lookup(va uint64, asid uint16) (e *Entry, probes int, ok bool) {
	t.tick++
	for round, bits := range probeOrder {
		set := t.set(va, bits)
		for i := range set {
			if set[i].pageBits == bits && set[i].match(va, asid) {
				set[i].lru = t.tick
				return &set[i], round + 1, true
			}
		}
	}
	return nil, len(probeOrder), false
}

// Insert refills an entry into the set selected by its own page size.
func (t *JointTLB) Insert(e Entry) {
	va := e.vpnTag << e.pageBits
	set := t.set(va, e.pageBits)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	t.tick++
	e.lru = t.tick
	e.valid = true
	set[victim] = e
}

// FlushAll invalidates the whole jTLB.
func (t *JointTLB) FlushAll() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
}

// FlushASID invalidates all non-global entries for one ASID.
func (t *JointTLB) FlushASID(asid uint16) {
	for i := range t.entries {
		if t.entries[i].valid && !t.entries[i].global && t.entries[i].asid == asid {
			t.entries[i].valid = false
		}
	}
}

// FlushVA invalidates entries covering a virtual address.
func (t *JointTLB) FlushVA(va uint64) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpnTag == va>>e.pageBits {
			e.valid = false
		}
	}
}
