package core

import (
	"xt910/internal/branch"
	"xt910/isa"
)

// pipeID names the eight execution pipes of the EX stage (§IV: "The EX stage
// contains 8 pipes, which can process 2 arithmetic operation instructions,
// 1 branch instruction, 1 load instruction, 2 store instructions (i.e., the
// pseudo double store instructions), 2 scalar floating point and vector
// instructions in parallel").
type pipeID int

// The eight pipes. ALU0 shares with the integer multiplier; ALU1 is the
// multi-cycle ALU pipe shared with the iterative divider.
const (
	pipeALU0 pipeID = iota
	pipeALU1
	pipeBJU
	pipeLD
	pipeSTA
	pipeSTD
	pipeFV0
	pipeFV1
	numPipes
)

var pipeNames = [numPipes]string{"alu0", "alu1", "bju", "ld", "st.addr", "st.data", "fv0", "fv1"}

func (p pipeID) String() string { return pipeNames[p] }

const noPhys = int16(-1)

// uop is one ROB entry: a decoded instruction with its rename bindings and
// execution state. Stores carry their pseudo-double µOps (st.addr/st.data) as
// two scheduling legs of the same entry.
type uop struct {
	seq  uint64
	pc   uint64
	inst isa.Inst

	// rename bindings
	srcPhys [3]int16
	nsrc    int
	newPhys int16
	oldPhys int16

	pipe     pipeID
	minIssue uint64
	issued   bool
	done     bool
	readyAt  uint64

	// memory state
	lqIdx    int
	sqIdx    int
	addr     uint64
	memSize  int
	addrDone bool
	dataDone bool
	fwd      bool
	// memLevel is the coherence.Level* the op's cache access was served from,
	// recorded at execute time (LevelL1 until then). The CPI stack's mem
	// sub-bucket attribution reads it at commit-stall time; recording at
	// execute keeps it constant over fast-forward windows (see DESIGN.md).
	memLevel uint8

	// control-flow state
	isCtrl     bool
	predTaken  bool
	predTarget uint64
	dirIdx     uint64
	histBefore uint64
	rasSnap    branch.RASSnapshot
	fromLoop   bool
	ckptID     int

	// retire behaviour
	atRetire    bool // executes when it reaches the ROB head (CSR/sys/AMO)
	amoPending  bool // atomic finished its cache access; arch effects at pop
	flushAfter  bool // serializing: flush the pipeline after retirement
	redirectTo  uint64
	squashRetry bool // §V-A ordering violation: squash at retire, refetch
	excCause    int  // -1: none
	excTval     uint64

	// fpFlags holds the IEEE exception flags an FPU op raised at execute.
	// They are speculative until retirement, where they accrue into fcsr —
	// a squashed FP op must leave fflags untouched.
	fpFlags uint8
}

func (u *uop) isLoad() bool {
	return u.inst.Op.IsLoad()
}

func (u *uop) isStore() bool {
	return u.inst.Op.IsStore()
}

// rob is the re-order buffer: a ring of uops retired strictly in order
// ("to ensure the correctness of program execution, the instructions are
// retired in order in spite of the out-of-order execution", §IV).
type rob struct {
	entries []uop
	head    int
	tail    int
	count   int
}

func newROB(size int) *rob { return &rob{entries: make([]uop, size)} }

func (r *rob) full() bool  { return r.count == len(r.entries) }
func (r *rob) empty() bool { return r.count == 0 }
func (r *rob) len() int    { return r.count }

// push appends a uop and returns its slot index.
func (r *rob) push(u uop) int {
	idx := r.tail
	r.entries[idx] = u
	r.tail = (r.tail + 1) % len(r.entries)
	r.count++
	return idx
}

func (r *rob) at(idx int) *uop { return &r.entries[idx] }

func (r *rob) headEntry() *uop { return &r.entries[r.head] }

// pop retires the head entry.
func (r *rob) pop() {
	r.head = (r.head + 1) % len(r.entries)
	r.count--
}

// live reports whether slot idx currently holds an allocated entry.
func (r *rob) live(idx int) bool {
	if r.count == 0 {
		return false
	}
	pos := (idx - r.head + len(r.entries)) % len(r.entries)
	return pos < r.count
}

// forEach visits entries oldest-first.
func (r *rob) forEach(fn func(idx int, u *uop) bool) {
	for i, idx := 0, r.head; i < r.count; i, idx = i+1, (idx+1)%len(r.entries) {
		if !fn(idx, &r.entries[idx]) {
			return
		}
	}
}

// squashAfter removes every entry with seq > keepSeq (walking from the tail),
// invoking fn for each removed entry (newest first) so the core can release
// resources.
func (r *rob) squashAfter(keepSeq uint64, fn func(u *uop)) {
	for r.count > 0 {
		lastIdx := (r.tail - 1 + len(r.entries)) % len(r.entries)
		u := &r.entries[lastIdx]
		if u.seq <= keepSeq {
			return
		}
		fn(u)
		r.tail = lastIdx
		r.count--
	}
}

// physFile is a unified scalar physical register file covering the integer
// and FP architectural spaces (§IV: "register renaming is applied to scalar
// integer, floating point and vector registers"; the vector file is tracked
// by a per-register scoreboard in the vector queue).
type physFile struct {
	val     []uint64
	readyAt []uint64 // pendingCycle while unwritten
	free    []int16
}

const pendingCycle = ^uint64(0)

// newPhysFile maps the 64 scalar architectural registers onto phys 0–63 and
// places the remainder on the free list.
func newPhysFile(intRegs, fpRegs int) (*physFile, []int16) {
	total := intRegs + fpRegs
	pf := &physFile{
		val:     make([]uint64, total),
		readyAt: make([]uint64, total),
	}
	rat := make([]int16, 64)
	for i := 0; i < 64; i++ {
		rat[i] = int16(i)
	}
	for i := total - 1; i >= 64; i-- {
		pf.free = append(pf.free, int16(i))
	}
	return pf, rat
}

func (pf *physFile) alloc() (int16, bool) {
	if len(pf.free) == 0 {
		return noPhys, false
	}
	p := pf.free[len(pf.free)-1]
	pf.free = pf.free[:len(pf.free)-1]
	pf.readyAt[p] = pendingCycle
	return p, true
}

func (pf *physFile) release(p int16) {
	if p != noPhys {
		pf.free = append(pf.free, p)
	}
}

func (pf *physFile) ready(p int16, now uint64) bool {
	return p == noPhys || pf.readyAt[p] <= now
}

// readyCycle returns when p becomes readable (pendingCycle if unknown).
func (pf *physFile) readyCycle(p int16) uint64 {
	if p == noPhys {
		return 0
	}
	return pf.readyAt[p]
}

func (pf *physFile) write(p int16, v uint64, at uint64) {
	if p == noPhys {
		return
	}
	pf.val[p] = v
	pf.readyAt[p] = at
}

func (pf *physFile) read(p int16) uint64 {
	if p == noPhys {
		return 0
	}
	return pf.val[p]
}

// checkpoint captures the front-end speculative state at a branch for
// single-cycle recovery (§IV speculative allocation of physical registers).
type checkpoint struct {
	used    bool
	seq     uint64
	rat     [64]int16
	history uint64
}
