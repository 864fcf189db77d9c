package emu

import (
	"testing"

	"xt910/isa"
)

// TestClockCSRsDefaultToInstret pins the functional machine's clock: the
// cycle, time and mcycle CSRs read the retired-instruction count.
func TestClockCSRsDefaultToInstret(t *testing.T) {
	m := run(t, `
_start:
    li   t0, 1
    li   t1, 2
    add  t2, t0, t1
    csrr a0, cycle
`+exitSeq)
	// a0 was read after 3 instructions retired (csrr itself retires after the
	// read), and exit reports a0
	if m.ExitCode != 3 {
		t.Fatalf("rdcycle = %d, want 3 (instret at the read)", m.ExitCode)
	}
	for _, n := range []uint16{isa.CSRCycle, isa.CSRTime, isa.CSRMcycle} {
		if got := m.CSR(n); got != m.Instret {
			t.Errorf("CSR %#x = %d, want Instret %d", n, got, m.Instret)
		}
	}
}
