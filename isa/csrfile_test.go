package isa

import (
	"reflect"
	"testing"
)

// TestCSRFilePresence pins what a checkpoint relies on: a CSR is listed by
// Dump once it has been written — with any value, through Set or Or — and
// never because it was read; named CSRs, unnamed 12-bit ones and numbers no
// instruction can encode all behave alike.
func TestCSRFilePresence(t *testing.T) {
	const unnamed, wide = uint16(0x7FF), uint16(0x1300) // 0x1300 & 0xFFF is mstatus
	if slotOf(unnamed) != 0 || slotOf(wide) != 0 {
		t.Fatal("test needs CSR numbers the table does not name")
	}
	var f CSRFile
	for _, n := range []uint16{CSRMstatus, CSRFcsr, unnamed, wide} {
		if f.Get(n) != 0 {
			t.Fatalf("%s reads %#x in an empty file", CSRName(n), f.Get(n))
		}
	}
	if got := f.Dump(); len(got) != 0 {
		t.Fatalf("reads materialized %v", got)
	}

	f.Set(CSRMepc, 0)      // a zero write still counts
	f.Or(CSRFcsr, 0)       // so does an OR that changes nothing
	f.Or(CSRMstatus, 0x60) // named, through Or
	f.Or(CSRMstatus, 0x06)
	f.Set(unnamed, 7)
	f.Or(wide, 8)
	f.Or(wide, 1)
	want := map[uint16]uint64{CSRMepc: 0, CSRFcsr: 0, CSRMstatus: 0x66, unnamed: 7, wide: 9}
	if got := f.Dump(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Dump = %v, want %v", got, want)
	}
	if f.Get(CSRMstatus) != 0x66 || f.Get(wide) != 9 || f.Get(CSRMstatus|0x2000) != 0 {
		t.Fatal("a wide CSR number aliased a named one")
	}

	var g CSRFile
	g.Set(CSRSatp, 1) // must not survive the restore
	g.Restore(want)
	if got := g.Dump(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Restore then Dump = %v, want %v", got, want)
	}
}

// TestCSRTableCoversNames: every named CSR has a slot, resolves both ways, and
// no two share one (init panics on a duplicate address).
func TestCSRTableCoversNames(t *testing.T) {
	seen := map[string]bool{}
	for i, e := range csrTable {
		if int(slotOf(e.num)) != i+1 {
			t.Errorf("%s: slot %d, want %d", e.name, slotOf(e.num), i+1)
		}
		if n, ok := ParseCSR(e.name); !ok || n != e.num || CSRName(e.num) != e.name {
			t.Errorf("%s (%#x) does not round-trip through ParseCSR/CSRName", e.name, e.num)
		}
		if seen[e.name] {
			t.Errorf("name %s listed twice", e.name)
		}
		seen[e.name] = true
	}
}
