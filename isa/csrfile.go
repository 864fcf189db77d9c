package isa

// CSRFile is the raw storage behind one hart's control and status registers:
// both models keep theirs in one, under their own CSR/SetCSR, which own the
// WARL windows, the aliases and the computed registers. A CSR the model names
// (csrTable) lives in a dense slot, found by one table load; any other
// address falls back to a map that exists only once such a CSR is written.
//
// A CSR is present once it has been written, with any value, and never
// before: reads do not materialize it. Dump lists exactly the present CSRs,
// which is what a checkpoint records. The zero value is an empty file.
//
// The file also notes writes to fcsr for the lock-step checker, which
// compares fcsr only after either model wrote it (TakeFcsrWrite).
type CSRFile struct {
	vals    [len(csrTable)]uint64
	present [len(csrTable)]bool
	other   map[uint16]uint64

	// fcsrSettled is set by TakeFcsrWrite and cleared by a write to fcsr:
	// a new or restored file counts as written.
	fcsrSettled bool
}

// Get returns the stored value of num, zero when it was never written.
func (f *CSRFile) Get(num uint16) uint64 {
	if s := slotOf(num); s != 0 {
		return f.vals[s-1]
	}
	return f.other[num]
}

// Set stores v as num's value.
func (f *CSRFile) Set(num uint16, v uint64) {
	if num == CSRFcsr {
		f.fcsrSettled = false
	}
	if s := slotOf(num); s != 0 {
		f.vals[s-1], f.present[s-1] = v, true
		return
	}
	if f.other == nil {
		f.other = make(map[uint16]uint64)
	}
	f.other[num] = v
}

// Or sets bits in num's value; like Set it makes num present even when it
// changes nothing.
func (f *CSRFile) Or(num uint16, bits uint64) { f.Set(num, f.Get(num)|bits) }

// Dump returns a copy of every present CSR, keyed by address.
func (f *CSRFile) Dump() map[uint16]uint64 {
	out := make(map[uint16]uint64)
	for s, ok := range f.present {
		if ok {
			out[csrTable[s].num] = f.vals[s]
		}
	}
	for n, v := range f.other {
		out[n] = v
	}
	return out
}

// Restore makes the file hold exactly the given CSRs (a Dump image).
func (f *CSRFile) Restore(csrs map[uint16]uint64) {
	*f = CSRFile{}
	for n, v := range csrs {
		f.Set(n, v)
	}
}

// TakeFcsrWrite reports whether fcsr was written since the last call, or ever
// on the first, and starts the next interval.
func (f *CSRFile) TakeFcsrWrite() bool {
	w := !f.fcsrSettled
	f.fcsrSettled = true
	return w
}
