// Package mem provides the physical memory substrate of the XT-910 model:
// a sparse byte-addressable memory and a fixed-latency DRAM timing model.
//
// The paper's memory-subsystem evaluation (Fig. 21) configures the FPGA
// harness so that "the CPU issues a read request and obtains the data from the
// bus after 200 CPU cycles"; DRAM reproduces exactly that contract.
package mem

import (
	"encoding/binary"

	"xt910/internal/recycle"
)

const pageBits = 12

// PageSize is the size of the unit memory is allocated in (Page), and the
// page the prefetcher's next-page TLB requests step by.
const PageSize = 1 << pageBits

// LineSize is the machine's cache line in bytes: every cache's, the
// prefetcher's, the LR/SC reservation granule and the checker's compare unit.
const LineSize = 64

// WriteTouchesLine reports whether a write of size bytes at pa touches the
// line holding addr.
func WriteTouchesLine(pa uint64, size int, addr uint64) bool {
	line := addr / LineSize
	return pa/LineSize <= line && line <= (pa+uint64(size)-1)/LineSize
}

// Device is a memory-mapped device window: the physical addresses it covers
// are read and written through it instead of through a Memory.
type Device interface {
	Covers(pa uint64) bool
	Read(pa uint64, size int) uint64
	Write(pa uint64, size int, v uint64)
}

// Memory is a sparse little-endian physical memory. The zero value is ready
// to use. It is not safe for concurrent use; the SoC model steps cores in a
// deterministic lock-step loop, so no locking is needed.
type Memory struct {
	pages map[uint64]*[PageSize]byte

	// last is the most recently resolved allocated page and lastPN its page
	// number: consecutive accesses mostly stay on one page, and this skips
	// the map for them. nil means no memo (and is what RestoreSnapshot leaves,
	// since it replaces every page).
	last   *[PageSize]byte
	lastPN uint64

	// gen counts the calls that took page arrays away (Code).
	gen uint64
}

// NewMemory returns an empty physical memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

func (m *Memory) page(addr uint64, alloc bool) *[PageSize]byte {
	pn := addr >> pageBits
	if m.last != nil && pn == m.lastPN {
		return m.last
	}
	p := m.pages[pn]
	if p == nil {
		if !alloc {
			return nil // an untouched page: not allocated, not remembered
		}
		if p = freePages.Get(); p == nil {
			p = new([PageSize]byte)
		}
		m.pages[pn] = p
	}
	m.last, m.lastPN = p, pn
	return p
}

// freePages recycles pages between memories: every page on it is all zero,
// as a new one is.
var freePages recycle.Objects[[PageSize]byte]

// Release hands every page to the memories that come after, zeroed. The
// memory reads as empty afterwards and must not be written again.
func (m *Memory) Release() {
	for _, p := range m.pages {
		clear(p[:])
		freePages.Put(p)
	}
	m.pages, m.last = nil, nil
	m.gen++
}

// Code reads instruction words for a fetch path. It holds the page it last
// read a word from, which stays that memory's page until a Release or
// RestoreSnapshot takes page arrays away (gen), so whoever writes the page
// later — a store, another hart, a loader, a fault injector — writes it, and
// a held word reads what Read would. The zero value holds nothing.
type Code struct {
	page *[PageSize]byte
	base uint64
	mem  *Memory
	gen  uint64
}

// Held returns the instruction at pa when its word lies on the held page and
// that page is still m's: the 32-bit little-endian word there, its upper half
// cleared when the low parcel is a 16-bit form. It is Load's fast path, small
// enough to inline into a fetch loop; ok is false when Load must answer.
func (c *Code) Held(m *Memory, pa uint64) (raw uint32, ok bool) {
	if off := pa - c.base; off <= PageSize-4 && c.mem == m && c.gen == m.gen {
		return instWord(binary.LittleEndian.Uint32(c.page[off : off+4])), true
	}
	return 0, false
}

// Load returns the instruction at pa in m, as Held does, read through the
// memory; it holds pa's page, when m has it, for the Held calls after. The
// bytes are physically contiguous, so a 32-bit form starting on a page's last
// halfword is read from the next physical page; a fetch through a
// translation that places that half elsewhere re-reads it.
func (c *Code) Load(m *Memory, pa uint64) uint32 {
	if off := pa & (PageSize - 1); off <= PageSize-4 {
		if p := m.page(pa, false); p != nil {
			c.page, c.base, c.mem, c.gen = p, pa-off, m, m.gen
			return instWord(binary.LittleEndian.Uint32(p[off : off+4]))
		}
	}
	return instWord(uint32(m.Read(pa, 4)))
}

func instWord(w uint32) uint32 {
	if w&3 != 3 {
		return w & 0xFFFF
	}
	return w
}

// LoadByte returns the byte at addr (0 for untouched memory).
func (m *Memory) LoadByte(addr uint64) byte {
	if p := m.page(addr, false); p != nil {
		return p[addr&(PageSize-1)]
	}
	return 0
}

// StoreByte stores one byte.
func (m *Memory) StoreByte(addr uint64, v byte) {
	m.page(addr, true)[addr&(PageSize-1)] = v
}

// Read returns size bytes starting at addr as a little-endian integer.
// size must be 1, 2, 4 or 8; the access may cross page boundaries.
func (m *Memory) Read(addr uint64, size int) uint64 {
	if off := addr & (PageSize - 1); off+uint64(size) <= PageSize {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		switch size {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		}
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.LoadByte(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write stores size bytes of v at addr, little-endian.
func (m *Memory) Write(addr uint64, size int, v uint64) {
	if off := addr & (PageSize - 1); off+uint64(size) <= PageSize {
		p := m.page(addr, true)
		switch size {
		case 1:
			p[off] = byte(v)
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
			return
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
			return
		}
	}
	for i := 0; i < size; i++ {
		m.StoreByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// LoadBytes copies len(dst) bytes starting at addr into dst.
func (m *Memory) LoadBytes(addr uint64, dst []byte) {
	for i := range dst {
		dst[i] = m.LoadByte(addr + uint64(i))
	}
}

// StoreBytes stores src at addr, a page at a time.
func (m *Memory) StoreBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		n := copy(m.page(addr, true)[addr&(PageSize-1):], src)
		addr += uint64(n)
		src = src[n:]
	}
}

// FootprintBytes reports how much memory has been touched (allocated pages).
func (m *Memory) FootprintBytes() uint64 {
	return uint64(len(m.pages)) * PageSize
}

// Snapshot returns a deep copy of every touched page, keyed by page number
// (byte address >> 12). It is the serializable image of the memory: restoring
// it into an empty Memory reproduces every Load exactly, because untouched
// pages read as zero in both.
func (m *Memory) Snapshot() map[uint64][]byte {
	out := make(map[uint64][]byte, len(m.pages))
	for pn, p := range m.pages {
		out[pn] = append([]byte(nil), p[:]...)
	}
	return out
}

// RestoreSnapshot replaces the memory's entire contents with a snapshot taken
// by Snapshot. Pages absent from the snapshot are dropped (they read as zero
// again); short page images are zero-padded.
func (m *Memory) RestoreSnapshot(pages map[uint64][]byte) {
	m.pages = make(map[uint64]*[PageSize]byte, len(pages))
	m.last = nil
	m.gen++
	for pn, data := range pages {
		p := new([PageSize]byte)
		copy(p[:], data)
		m.pages[pn] = p
	}
}

// DRAM models main-memory timing as a fixed access latency plus a bandwidth
// limit expressed as a minimum inter-access gap, matching the paper's
// "configure bus delay and DDR delay to ~200 CPU cycles" methodology.
type DRAM struct {
	// Latency is the request-to-data delay in CPU cycles (default 200, §X).
	Latency int
	// GapCycles is the minimum spacing between successive DRAM accesses,
	// modelling channel bandwidth. Zero means unlimited bandwidth.
	GapCycles int

	nextFree uint64 // earliest cycle the channel can accept a request
	Accesses uint64 // statistics: number of DRAM accesses
}

// NewDRAM returns a DRAM model with the paper's 200-cycle latency.
func NewDRAM() *DRAM { return &DRAM{Latency: 200, GapCycles: 4} }

// Access returns the cycle at which data for a request issued at cycle `now`
// becomes available, accounting for channel occupancy.
func (d *DRAM) Access(now uint64) uint64 {
	start := now
	if d.nextFree > start {
		start = d.nextFree
	}
	d.nextFree = start + uint64(d.GapCycles)
	d.Accesses++
	return start + uint64(d.Latency)
}

// Reset clears channel state and statistics.
func (d *DRAM) Reset() {
	d.nextFree = 0
	d.Accesses = 0
}
