package core

import "xt910/internal/branch"

// pipeID names the eight execution pipes of the EX stage (§IV: "The EX stage
// contains 8 pipes, which can process 2 arithmetic operation instructions,
// 1 branch instruction, 1 load instruction, 2 store instructions (i.e., the
// pseudo double store instructions), 2 scalar floating point and vector
// instructions in parallel").
type pipeID uint8

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

// uop is one ROB entry: a pre-cracked instruction with its rename bindings and
// execution state. Stores carry their pseudo-double µOps (st.addr/st.data) as
// two scheduling legs of the same entry.
//
// Entries are built in place in the ROB's tail slot (ring.tail/commit), so
// a slot still holds its previous occupant's bytes when rename starts on it:
// tryRename assigns every field above br, and br only for control µops —
// nothing reads br unless isCtrl() holds. Everything above br is the hot part
// that rename, issue, the LSU and retire touch for every µop; a size guard in
// the tests keeps it within two cache lines.
type uop struct {
	seq uint64
	pc  uint64
	sinst

	minIssue uint64
	excTval  uint64

	// rename bindings
	srcPhys [3]int16
	newPhys int16
	oldPhys int16

	// qslot is the µop's slot in the load or store queue ring (a µop is never
	// both); meaningful only for loads and stores renamed without a pending
	// exception.
	qslot    int16
	excCause int16 // -1: none
	ckptID   int16 // rename checkpoint held by an unresolved branch; -1: none
	pipe     pipeID

	predTaken bool
	fromLoop  bool
	atRetire  bool // executes when it reaches the ROB head (CSR/sys/AMO)

	uopExec

	br brState
}

// uopExec is the part of a µop that starts out zero at rename and is filled
// in as the µop executes and retires.
type uopExec struct {
	readyAt    uint64
	addr       uint64
	redirectTo uint64

	issued   bool
	done     bool
	addrDone bool
	dataDone bool
	fwd      bool

	effectPending bool // executed at the ROB head (atomic, device load); arch effect at the pop
	flushAfter    bool // serializing: flush the pipeline after retirement
	squashRetry   bool // §V-A ordering violation: squash at retire, refetch

	// memLevel is the coherence.Level* the op's cache access was served from,
	// recorded at execute time (LevelL1 until then). The CPI stack's mem
	// sub-bucket attribution reads it at commit-stall time; recording at
	// execute keeps it constant over fast-forward windows (see DESIGN.md).
	memLevel uint8

	// fpFlags holds the IEEE exception flags an FPU op raised at execute.
	// They are speculative until retirement, where they accrue into fcsr —
	// a squashed FP op must leave fflags untouched.
	fpFlags uint8
}

// brState is what fetch predicted for a control instruction and what branch
// recovery rewinds to. Fetch fills it for branches and jumps only, and rename
// copies it into the ROB for those only.
type brState struct {
	predTarget uint64
	dirIdx     uint64
	histBefore uint64
	rasSnap    branch.RASSnapshot
}

// physFile is a unified scalar physical register file covering the integer
// and FP architectural spaces (§IV: "register renaming is applied to scalar
// integer, floating point and vector registers"; the vector file is tracked
// by a per-register scoreboard in the vector queue).
type physFile struct {
	val     []uint64
	readyAt []uint64 // pendingCycle while unwritten
	free    []int16

	// held counts the retirement-map entries naming each physical register.
	// rebound marks the architectural registers (bit r of isa.Reg r)
	// retirement rebinds, and clobbered records a write to a held register
	// outside retirement; ArchRegMismatchSince consumes and clears both.
	held      []int16
	rebound   uint64
	clobbered bool

	words []uint64 // val and readyAt: one array from freeRegWords
	maps  []int16  // both rename maps, free's storage and held: one array from freeRegMaps
}

const pendingCycle = ^uint64(0)

// newPhysFile maps the 64 scalar architectural registers onto phys 0–63 in
// the speculative and the retirement map and places the remainder on the free
// list. The free list's capacity is every register, more than it can hold, so
// its appends stay inside the array; releaseStorage hands both arrays back.
// A new file counts as clobbered: nothing has compared it yet.
func newPhysFile(intRegs, fpRegs int) (pf physFile, rat, archRAT []int16) {
	total := intRegs + fpRegs
	pf.words = freeRegWords.Get(2 * total)
	pf.val, pf.readyAt = pf.words[:total:total], pf.words[total:]
	pf.maps = freeRegMaps.Get(128 + 2*total)
	rat, archRAT = pf.maps[:64:64], pf.maps[64:128:128]
	pf.free, pf.held = pf.maps[128:128:128+total], pf.maps[128+total:]
	for i := 0; i < 64; i++ {
		rat[i], archRAT[i], pf.held[i] = int16(i), int16(i), 1
	}
	pf.clobbered = true
	for i := total - 1; i >= 64; i-- {
		pf.free = append(pf.free, int16(i))
	}
	return pf, rat, archRAT
}

// releaseStorage hands the register file's arrays to the cores built after
// it; the file and its core's rename maps must not be used afterwards.
func (pf *physFile) releaseStorage() {
	freeRegWords.Put(&pf.words)
	freeRegMaps.Put(&pf.maps)
	*pf = physFile{}
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
	if pf.held[p] != 0 {
		pf.clobbered = true
	}
}

// rebind points architectural register r of the retirement map archRAT at p
// and releases the register it named before.
func (pf *physFile) rebind(archRAT []int16, r int, p int16) {
	old := archRAT[r]
	pf.release(old)
	pf.held[old]--
	pf.held[p]++
	archRAT[r] = p
	pf.rebound |= 1 << r
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
	used bool
	rat  [64]int16
}
