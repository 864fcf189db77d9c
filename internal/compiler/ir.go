// Package compiler is the toolchain model for the §IX co-optimization study
// (Fig. 20). It compiles a small three-address IR to XT-910 machine code —
// asm.Items, which asm.Builder turns into an image — through two backends:
//
//   - Baseline: the "native RISC-V ISA and compiler" code generator — global
//     variables materialize their address at every access, loop bodies
//     recompute indexed addresses with sign-extension churn, induction
//     variables update via addiw with the control code inside the loop, and
//     dead stores are retained.
//   - Optimized: the XT-910 toolchain — an anchor register addresses all
//     globals by offset (§IX item 2), induction-variable optimization hoists
//     address computation into strength-reduced pointers (§IX item 1), dead
//     store elimination runs (§IX item 3), and the §VIII custom extensions
//     (indexed loads/stores, addsl, mula) are selected.
//
// The IR deliberately exposes exactly the patterns the paper's optimizations
// target, so compiling the same kernel both ways reproduces Fig. 20's
// ~20% end-to-end improvement.
package compiler

// VReg is a virtual register.
type VReg int

// StmtKind enumerates IR operations.
type StmtKind int

// IR statement kinds.
const (
	SConst    StmtKind = iota // dst = imm
	SAdd                      // dst = a + b
	SSub                      // dst = a - b
	SMul                      // dst = a * b
	SAddImm                   // dst = a + imm
	SShl                      // dst = a << imm
	SLoadIdx                  // dst = sext32(mem32[global + idx<<2])
	SStoreIdx                 // mem32[global + idx<<2] = a
	SLoadG                    // dst = sext32(global scalar)
	SStoreG                   // global scalar = a
	SAccum                    // dst = dst + a*b (MAC pattern)
)

// memory reports whether the statement reads or writes its global G.
func (k StmtKind) memory() bool { return k >= SLoadIdx && k <= SStoreG }

// indexed reports whether the statement addresses element Idx of its global.
func (k StmtKind) indexed() bool { return k == SLoadIdx || k == SStoreIdx }

// Stmt is one IR statement.
type Stmt struct {
	Kind StmtKind
	Dst  VReg
	A, B VReg
	Imm  int64
	G    string // global name for memory ops
	Idx  VReg   // index register for *Idx ops
}

// Node is either a straight-line statement or a counted loop.
type Node struct {
	Stmt *Stmt
	Loop *Loop
}

// Loop is a counted loop; Body references Induction as the index variable
// running 0..N-1.
type Loop struct {
	N         int
	Induction VReg
	Body      []Stmt
}

// Global declares a named data object of Words 32-bit words.
type Global struct {
	Name  string
	Words int
	Init  func(i int) int32 // nil: zero-initialized
}

// Function is a compilable unit. Result is the virtual register whose final
// value becomes the program's exit code (checksum).
type Function struct {
	Name    string
	Globals []Global
	Code    []Node
	Result  VReg
	// Repeat wraps the whole body in an outer benchmark-iteration loop.
	Repeat int
}

// S creates a statement node.
func S(s Stmt) Node { return Node{Stmt: &s} }

// L creates a loop node.
func L(l Loop) Node { return Node{Loop: &l} }
