// Package isa models the XT-910 instruction set: the RV64IMAFD base, all of
// RV64C, the RISC-V Vector extension (0.7.1 draft subset), and the XT-910
// non-standard custom extensions (indexed load/store, bit manipulation,
// multiply-accumulate, cache/TLB maintenance).
//
// The package provides bit-level encoding and decoding, disassembly, and pure
// semantic helpers shared by the architectural emulator (internal/emu) and the
// cycle-approximate pipeline model (internal/core), so that both models execute
// exactly the same ISA.
package isa

import "fmt"

// Reg identifies an architectural register in a unified namespace:
// x0–x31 occupy 0–31, f0–f31 occupy 32–63, and v0–v31 occupy 64–95.
// The unified numbering lets the rename stage treat all three files uniformly.
type Reg uint8

// Register namespace boundaries.
const (
	RegX0 Reg = 0  // integer file base
	RegF0 Reg = 32 // floating-point file base
	RegV0 Reg = 64 // vector file base

	NumXRegs = 32
	NumFRegs = 32
	NumVRegs = 32

	// RegNone marks an absent operand.
	RegNone Reg = 255
)

// Common ABI registers used by the assembler and code generators.
const (
	Zero Reg = 0
	RA   Reg = 1
	SP   Reg = 2
	GP   Reg = 3
	TP   Reg = 4
	T0   Reg = 5
	T1   Reg = 6
	T2   Reg = 7
	S0   Reg = 8
	S1   Reg = 9
	A0   Reg = 10
	A1   Reg = 11
	A2   Reg = 12
	A3   Reg = 13
	A4   Reg = 14
	A5   Reg = 15
	A6   Reg = 16
	A7   Reg = 17
	S2   Reg = 18
	S3   Reg = 19
	S4   Reg = 20
	S5   Reg = 21
	S6   Reg = 22
	S7   Reg = 23
	S8   Reg = 24
	S9   Reg = 25
	S10  Reg = 26
	S11  Reg = 27
	T3   Reg = 28
	T4   Reg = 29
	T5   Reg = 30
	T6   Reg = 31
)

// X returns the integer register with the given index (0–31).
func X(i int) Reg { return Reg(i) }

// F returns the floating-point register with the given index (0–31).
func F(i int) Reg { return RegF0 + Reg(i) }

// V returns the vector register with the given index (0–31).
func V(i int) Reg { return RegV0 + Reg(i) }

// IsX reports whether r names an integer register.
func (r Reg) IsX() bool { return r < RegF0 }

// IsF reports whether r names a floating-point register.
func (r Reg) IsF() bool { return r >= RegF0 && r < RegV0 }

// IsV reports whether r names a vector register.
func (r Reg) IsV() bool { return r >= RegV0 && r < RegV0+NumVRegs }

// Index returns the register's index within its own file (0–31).
func (r Reg) Index() int {
	switch {
	case r.IsX():
		return int(r)
	case r.IsF():
		return int(r - RegF0)
	case r.IsV():
		return int(r - RegV0)
	}
	return -1
}

var xABINames = [32]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

var fABINames = [32]string{
	"ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7",
	"fs0", "fs1", "fa0", "fa1", "fa2", "fa3", "fa4", "fa5",
	"fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7",
	"fs8", "fs9", "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
}

// String returns the ABI name of the register ("a0", "fs1", "v7", …).
func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "<none>"
	case r.IsX():
		return xABINames[r]
	case r.IsF():
		return fABINames[r.Index()]
	case r.IsV():
		return fmt.Sprintf("v%d", r.Index())
	}
	return fmt.Sprintf("r?%d", uint8(r))
}

// regNames maps every accepted spelling (ABI and numeric) to a Reg.
// The assembler uses it to parse operands.
var regNames = map[string]Reg{}

func init() {
	for i := 0; i < 32; i++ {
		regNames[fmt.Sprintf("x%d", i)] = X(i)
		regNames[xABINames[i]] = X(i)
		regNames[fmt.Sprintf("f%d", i)] = F(i)
		regNames[fABINames[i]] = F(i)
		regNames[fmt.Sprintf("v%d", i)] = V(i)
	}
	regNames["fp"] = S0
}

// ParseReg resolves a register name ("a0", "x10", "fa0", "v3", "fp") to a Reg.
func ParseReg(name string) (Reg, bool) {
	r, ok := regNames[name]
	return r, ok
}
