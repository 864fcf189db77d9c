package cosim

import (
	"fmt"
	"strings"
)

// Modes is the composable run/fuzz mode set shared by the cosim library and
// every campaign CLI: each flag turns on one program profile and the session
// wiring it needs. A single `-modes smp,irq` style spec expresses every legal
// combination and the legality rules live in exactly one place (Validate).
type Modes struct {
	// Paged boots the program in S-mode under SV39 translation using the
	// identity-plus-offset layout (see mmu.IdentityPlusOffset): [0, 640K)
	// mapped onto itself RWX in 4K pages, plus a read-write non-executable
	// alias of the same physical range at +1GB. All exceptions are delegated
	// to S-mode and stvec is left at 0, so a page fault halts both models
	// with exit code -(16+cause) and the trap CSRs (scause/stval/sepc) are
	// compared like any other run.
	Paged bool
	// IRQ makes the fuzzer generate interrupt-driven programs: an mtvec
	// handler prologue, WFI / MIE-toggle / interrupt-CSR segments, and a
	// deterministic per-seed schedule of IRQEvents (see Options.IRQSchedule).
	IRQ bool
	// SMP runs the program SPMD on multiple lock-step hart pairs with
	// cross-hart contention segments and the store-order oracle.
	SMP bool
}

// ParseModes parses a comma-separated mode spec ("", "irq", "smp,irq", ...)
// and validates the combination.
func ParseModes(spec string) (Modes, error) {
	var m Modes
	for _, f := range strings.Split(spec, ",") {
		switch strings.TrimSpace(f) {
		case "":
		case "paged":
			m.Paged = true
		case "irq":
			m.IRQ = true
		case "smp":
			m.SMP = true
		default:
			return Modes{}, fmt.Errorf("unknown mode %q (valid: paged, irq, smp)", strings.TrimSpace(f))
		}
	}
	return m, m.Validate()
}

// Validate rejects mode combinations the models cannot support.
func (m Modes) Validate() error {
	if m.Paged && m.IRQ {
		return fmt.Errorf("modes paged and irq cannot be combined (interrupt CSR traffic is M-mode)")
	}
	if m.Paged && m.SMP {
		return fmt.Errorf("modes paged and smp cannot be combined (the SMP profile runs M-mode physical)")
	}
	return nil
}

// String renders the spec back in canonical order ("" for the empty set).
func (m Modes) String() string {
	var parts []string
	if m.Paged {
		parts = append(parts, "paged")
	}
	if m.IRQ {
		parts = append(parts, "irq")
	}
	if m.SMP {
		parts = append(parts, "smp")
	}
	return strings.Join(parts, ",")
}
