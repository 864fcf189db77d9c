package cosim

import (
	"fmt"
	"testing"

	"xt910/internal/asm"
	"xt910/internal/emu"
	"xt910/internal/mem"
	"xt910/isa"
)

// warlCases tables the interrupt-CSR write windows both models must share:
// writing all-ones stores exactly the writable mask.
var warlCases = []struct {
	name string
	csr  string
	num  uint16
	want uint64
}{
	{"mie", "mie", isa.CSRMie, isa.MieWritableMask},
	{"mip", "mip", isa.CSRMip, isa.MipWritableMask},
	{"mideleg", "mideleg", isa.CSRMideleg, isa.MidelegWritableMask},
}

// TestEmuCSRWindows pins the golden model's WARL masks directly.
func TestEmuCSRWindows(t *testing.T) {
	for _, tc := range warlCases {
		t.Run(tc.name, func(t *testing.T) {
			m := emu.New(mem.NewMemory())
			m.SetCSR(tc.num, ^uint64(0))
			if got := m.CSR(tc.num); got != tc.want {
				t.Fatalf("emu %s after writing ~0: got %#x, want %#x", tc.name, got, tc.want)
			}
		})
	}
}

// TestCSRWindowParity writes all-ones to each interrupt CSR on both models
// under the lock-step checker and asserts the identical masked value lands in
// a register — a WARL window mismatch diverges, a matching one must settle on
// the documented mask.
func TestCSRWindowParity(t *testing.T) {
	for _, tc := range warlCases {
		t.Run(tc.name, func(t *testing.T) {
			src := fmt.Sprintf(`
_start:
    li x5, -1
    csrrw x0, %[1]s, x5
    csrr x6, %[1]s
    li x17, 93
    li x10, 0
    ecall
`, tc.csr)
			prog, err := asm.Assemble(src, asm.Options{Base: 0x1000, Compress: true})
			if err != nil {
				t.Fatal(err)
			}
			s := NewSession(prog, Options{})
			for !s.Done() {
				s.Step()
			}
			if r := s.Finish(); r.Diverged {
				t.Fatalf("WARL parity broke:\n%s", r.Report)
			}
			if got := s.Hart(0).Core().Reg(isa.X(6)); got != tc.want {
				t.Fatalf("core read back %#x after writing ~0 to %s, want %#x", got, tc.csr, tc.want)
			}
		})
	}
}

// TestWFIPendingIsNop checks the pending-source WFI window under the checker:
// with an armed-but-gated source (mie enables it, the global MIE is off), WFI
// must neither park nor deliver on either model — it falls through as a nop
// and the run completes with no interrupt taken.
func TestWFIPendingIsNop(t *testing.T) {
	prog, err := asm.Assemble(`
_start:
    li x5, 2184
    csrrw x0, mie, x5
    wfi
    addi x6, x0, 9
    li x17, 93
    li x10, 0
    ecall
`, asm.Options{Base: 0x1000, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(prog, Options{IRQSchedule: []IRQEvent{{AfterCommit: 0, Bits: 1 << isa.IntMTimer}}})
	for !s.Done() {
		s.Step()
	}
	if r := s.Finish(); r.Diverged {
		t.Fatalf("pending-WFI run diverged:\n%s", r.Report)
	}
	st := &s.Hart(0).Core().Stats
	if st.Interrupts != 0 {
		t.Fatalf("Interrupts=%d: the globally-gated source must not deliver", st.Interrupts)
	}
	if st.WFIParkedCycles != 0 {
		t.Fatalf("WFIParkedCycles=%d: WFI with a pending enabled source must not park", st.WFIParkedCycles)
	}
}
