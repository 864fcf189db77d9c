package mmu

import "xt910/isa"

// Stats counts translation events for the paper's TLB experiments.
type Stats struct {
	Lookups     uint64
	MicroHits   uint64
	JointHits   uint64
	JointProbes uint64 // total probe rounds across jTLB lookups
	Walks       uint64
	Faults      uint64
	Flushes     uint64 // full-TLB flushes (the §V-E ASID metric)
	ASIDFlushes uint64
	Prefills    uint64 // entries installed by the TLB prefetcher
}

// TimedRead reads a 64-bit physical word and returns the cycle at which the
// data is available, given the request cycle. The core wires this to the
// cache hierarchy so page-table walks are charged realistically.
type TimedRead func(pa uint64, now uint64) (val uint64, done uint64)

// jtlbProbeCycles is the extra latency per jTLB probe round.
const jtlbProbeCycles = 2

// MMU is one hart's translation machinery.
type MMU struct {
	Micro *MicroTLB
	Joint *JointTLB

	// Satp mirrors the satp CSR; Priv is the current privilege level.
	Satp uint64
	Priv int

	read  TimedRead
	Stats Stats
}

// New returns an MMU with XT-910-like defaults (32-entry uTLB, 1024-entry
// 4-way jTLB) reading PTEs through the supplied timed reader.
func New(read TimedRead) *MMU {
	return &MMU{
		Micro: NewMicroTLB(32),
		Joint: NewJointTLB(1024, 4),
		read:  read,
	}
}

// Enabled reports whether SV39 translation is active for data accesses.
func (m *MMU) Enabled() bool {
	return isa.SatpMode(m.Satp) == isa.SatpModeSV39 && m.Priv != isa.PrivM
}

// Translate translates va for the access type, returning the physical
// address and the cycle at which the translation is available.
// On a page fault it returns the *PageFault error.
func (m *MMU) Translate(va uint64, acc Access, now uint64) (pa uint64, done uint64, err error) {
	if !m.Enabled() {
		return va, now, nil
	}
	m.Stats.Lookups++
	asid := isa.SatpASID(m.Satp)
	if e, ok := m.Micro.Lookup(va, asid); ok {
		if !PermOK(e.perms, acc, m.Priv) {
			m.Stats.Faults++
			return 0, now, &PageFault{VA: va, Access: acc}
		}
		m.Stats.MicroHits++
		return e.pa(va), now, nil
	}
	if e, probes, ok := m.Joint.Lookup(va, asid); ok {
		m.Stats.JointHits++
		m.Stats.JointProbes += uint64(probes)
		if !PermOK(e.perms, acc, m.Priv) {
			m.Stats.Faults++
			return 0, now, &PageFault{VA: va, Access: acc}
		}
		m.Micro.Insert(*e)
		return e.pa(va), now + uint64(probes*jtlbProbeCycles), nil
	}
	m.Stats.JointProbes += uint64(len(probeOrder))
	// Page-table walk through the memory hierarchy.
	m.Stats.Walks++
	t := now + uint64(len(probeOrder)*jtlbProbeCycles)
	res, werr := Walk(func(ptePA uint64) uint64 {
		v, d := m.read(ptePA, t)
		t = d
		return v
	}, m.Satp, va, acc, m.Priv)
	if werr != nil {
		m.Stats.Faults++
		return 0, t, werr
	}
	e := Entry{
		vpnTag:   va >> res.PageBits,
		asid:     asid,
		global:   res.Global,
		pageBits: res.PageBits,
		ppn:      res.PA >> res.PageBits,
		perms:    res.Perms,
	}
	m.Joint.Insert(e)
	m.Micro.Insert(e)
	return res.PA, t, nil
}

// TranslateNoWalk resolves va using only resident TLB entries — the path
// hardware prefetch requests take: a prefetch that misses the TLB is dropped
// rather than triggering a page-table walk. (The §V-C TLB prefetcher exists
// precisely to keep these entries resident; Fig. 21 scenario e measures the
// cost of turning it off.)
func (m *MMU) TranslateNoWalk(va uint64) (uint64, bool) {
	if !m.Enabled() {
		return va, true
	}
	asid := isa.SatpASID(m.Satp)
	if e, ok := m.Micro.Lookup(va, asid); ok {
		return e.pa(va), true
	}
	if e, _, ok := m.Joint.Lookup(va, asid); ok {
		return e.pa(va), true
	}
	return 0, false
}

// Prefill translates va in the background (the §V-C cross-page TLB prefetch)
// and installs the result without charging the requesting load. It never
// faults; failed speculative walks are simply dropped.
func (m *MMU) Prefill(va uint64) {
	if !m.Enabled() {
		return
	}
	asid := isa.SatpASID(m.Satp)
	if _, ok := m.Micro.Lookup(va, asid); ok {
		return
	}
	if e, _, ok := m.Joint.Lookup(va, asid); ok {
		m.Micro.Insert(*e)
		return
	}
	res, err := Walk(func(ptePA uint64) uint64 {
		v, _ := m.read(ptePA, 0)
		return v
	}, m.Satp, va, AccLoad, m.Priv)
	if err != nil {
		return
	}
	e := Entry{
		vpnTag:   va >> res.PageBits,
		asid:     asid,
		global:   res.Global,
		pageBits: res.PageBits,
		ppn:      res.PA >> res.PageBits,
		perms:    res.Perms,
	}
	m.Joint.Insert(e)
	m.Micro.Insert(e)
	m.Stats.Prefills++
}

func (e *Entry) pa(va uint64) uint64 {
	mask := uint64(1)<<e.pageBits - 1
	return e.ppn<<e.pageBits | va&mask
}

// FlushAll invalidates both TLB levels (sfence.vma with rs1=rs2=x0).
func (m *MMU) FlushAll() {
	m.Micro.FlushAll()
	m.Joint.FlushAll()
	m.Stats.Flushes++
}

// FlushASID invalidates one address space (the broadcast tlbi.asid custom op,
// §V-E: hardware maintenance without IPIs).
func (m *MMU) FlushASID(asid uint16) {
	m.Micro.FlushASID(asid)
	m.Joint.FlushASID(asid)
	m.Stats.ASIDFlushes++
}

// FlushVA invalidates translations covering one virtual address.
func (m *MMU) FlushVA(va uint64) {
	m.Micro.FlushVA(va)
	m.Joint.FlushVA(va)
}
