package branch

// LoopBuffer is the XT-910 LBUF (§III-C): a 16-entry buffer that captures
// small loop bodies so that instruction fetch bypasses the L1 I-cache
// entirely, the backward jump costs no bubble, and the last instruction of
// one iteration issues together with the first instruction of the next.
// Forward branches inside the body (if-else) are allowed. The buffer is
// flushed on context switches.
type LoopBuffer struct {
	// entries are the PCs of the captured loop body, in order.
	entries  []uint64
	capacity int

	// detection state: candidate backward branch and hit counting
	candBranch uint64 // PC of the backward branch closing the loop
	candTarget uint64 // loop head
	candCount  int    // consecutive taken sightings

	active bool
	head   uint64 // loop start PC
	end    uint64 // the backward branch PC

	Stats Stats
}

// NewLoopBuffer returns the 16-entry LBUF.
func NewLoopBuffer() *LoopBuffer { return &LoopBuffer{capacity: 16} }

// trainThreshold is how many consecutive taken sightings of the same
// backward branch arm capture.
const trainThreshold = 3

// Observe trains the LBUF with a resolved taken backward branch.
// bodyPCs lists the instruction PCs from target..branch when the body is
// small enough to capture (the fetch unit supplies them).
func (l *LoopBuffer) Observe(branchPC, targetPC uint64, bodyLen int) {
	if l.active || targetPC >= branchPC {
		return
	}
	if bodyLen > l.capacity {
		return
	}
	if l.candBranch == branchPC && l.candTarget == targetPC {
		l.candCount++
		if l.candCount >= trainThreshold {
			l.active = true
			l.head = targetPC
			l.end = branchPC
			l.Stats.LoopBufFills++
		}
		return
	}
	l.candBranch, l.candTarget, l.candCount = branchPC, targetPC, 1
}

// Covers reports whether fetch at pc can be served from the LBUF (no I-cache
// access, zero-bubble back edge).
func (l *LoopBuffer) Covers(pc uint64) bool {
	if !l.active {
		return false
	}
	if pc >= l.head && pc <= l.end {
		l.Stats.LoopBufHits++
		return true
	}
	return false
}

// Active reports whether a loop is currently captured.
func (l *LoopBuffer) Active() bool { return l.active }

// End returns the loop-closing branch PC.
func (l *LoopBuffer) End() uint64 { return l.end }

// Exit deactivates the captured loop (the backward branch fell through).
func (l *LoopBuffer) Exit() {
	l.active = false
	l.candCount = 0
}

// Flush clears everything (context switch, §III-C).
func (l *LoopBuffer) Flush() {
	l.active = false
	l.candBranch, l.candTarget, l.candCount = 0, 0, 0
	l.entries = l.entries[:0]
}
