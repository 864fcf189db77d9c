package cosim

import (
	"fmt"
	"strings"
	"testing"

	"xt910/isa"
)

// finalStateProgram leaves something in every field the halt-time compare
// reads: x and f registers, a live reservation, a vector configuration and a
// written vector register.
const finalStateProgram = `
_start:
    li   a1, 0x20000
    li   t0, 5
    sd   t0, 0(a1)
    fcvt.d.l f1, t0
    li   t1, 4
    vsetvli t2, t1, e32, m1
    vle.v v2, (a1)
    lr.d t3, (a1)
` + exitEpilogue

// TestFinalCheckInPlaceMatchesDiff: each field the halt-time compare covers is
// corrupted here in the golden model, one at a time, after the core halted;
// every run must end with the kind and detail lines the snapshot compare
// (ArchState.Diff, since replaced by the in-place walk) gave, and the field
// the walk names (a CSR is still caught first by compareCSRState, as kind
// csr). Checkpoint, which runs the same compare at a boundary, must fail on
// the same line.
func TestFinalCheckInPlaceMatchesDiff(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inject func(h *HartSession)
		kind   string
		field  string
		detail string // the report's detail lines
		cp     string // Checkpoint's error text
	}{
		{"xreg", func(h *HartSession) { h.Emu().X[isa.T0.Index()] ^= 1 << 40 },
			"final", "t0", "t0: 0x5 != 0x10000000005", "t0: 0x5 != 0x10000000005"},
		{"freg", func(h *HartSession) { h.Emu().F[1] ^= 1 },
			"final", "ft1", "ft1: 0x4014000000000000 != 0x4014000000000001", "ft1: 0x4014000000000000 != 0x4014000000000001"},
		{"reservation", func(h *HartSession) { h.Emu().KillReservation(0x20000, 8) },
			"final", "reservation", "reservation: valid=true addr=0x20000 != valid=false addr=0x20000",
			"reservation: valid=true addr=0x20000 != valid=false addr=0x20000"},
		{"csr", func(h *HartSession) { h.Emu().SetCSR(isa.CSRMscratch, 0x77) },
			"csr", "mscratch", "mscratch: core=0x0 emu=0x77", "csr mscratch: 0x0 != 0x77"},
		{"vl", func(h *HartSession) { h.Emu().Vec.VL = 3 },
			"final", "vl", "vl: 4 != 3", "vl: 4 != 3"},
		{"vtype", func(h *HartSession) { h.Emu().Vec.VType ^= 1 },
			"final", "vtype", "vtype: 0x8 != 0x9", "vtype: 0x8 != 0x9"},
		{"vector byte", func(h *HartSession) { h.Emu().Vec.File.Bytes(2)[9] ^= 0x80 },
			"final", "v2", "v2 byte 9: 00 != 80", "v2 byte 9: 00 != 80"},
		{"instret", func(h *HartSession) { h.Emu().Instret += 2 },
			"final", "instret", "instret: 11 != 13", "instret: 11 != 13"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession(mustAssemble(t, finalStateProgram), Options{})
			defer s.Release()
			for !s.Done() {
				s.Step()
			}
			if _, err := s.Checkpoint(); err != nil {
				t.Fatalf("clean halt: %v", err)
			}
			tc.inject(s.Hart(0))
			_, err := s.Checkpoint()
			if want := "cosim: models differ at boundary: " + tc.cp; err == nil || err.Error() != want {
				t.Errorf("Checkpoint: %v, want %s", err, want)
			}
			r := s.Finish()
			if r.Kind != tc.kind || r.Field != tc.field {
				t.Fatalf("kind %q field %q, want %q %q\n%s", r.Kind, r.Field, tc.kind, tc.field, r.Report)
			}
			if !strings.Contains(r.Report, "\n  "+tc.detail+"\n") {
				t.Errorf("report lacks detail %q:\n%s", tc.detail, r.Report)
			}
		})
	}
}

// TestFinalVectorDivergenceNamesItsRegister: a vector register that differs
// only at halt is filed under its own name, so unrelated vector bugs do not
// share one corpus signature. Parsing the field back out of the detail line
// "v2 byte 9: 00 != 80" gave none, the label holding a space.
func TestFinalVectorDivergenceNamesItsRegister(t *testing.T) {
	s := NewSession(mustAssemble(t, finalStateProgram), Options{})
	defer s.Release()
	for !s.Done() {
		s.Step()
	}
	s.Hart(0).Emu().Vec.File.Bytes(2)[9] ^= 0x80
	r := s.Finish()
	if r.Field != "v2" || r.Signature() != "final/v2/none" {
		t.Fatalf("field %q signature %q, want v2 and final/v2/none\n%s", r.Field, r.Signature(), r.Report)
	}
}

// TestHaltCompareAllocatesNothing: on a clean, halted session the halt-time
// drain and the compare a checkpoint runs format no line and allocate nothing.
func TestHaltCompareAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := NewSession(mustAssemble(t, finalStateProgram), Options{})
	defer s.Release()
	for !s.Done() {
		s.Step()
	}
	k := s.Hart(0).k
	allocs := testing.AllocsPerRun(100, func() {
		k.drain()
		if _, diffs := k.archDiff(); diffs != nil || k.failed {
			t.Fatalf("a clean halt differs: %v\n%s", diffs, k.report())
		}
	})
	if allocs != 0 {
		t.Errorf("the halt and checkpoint compare allocate %v objects, want 0", allocs)
	}
}

// TestReportsNameTheLowestLine: the halt-time sweep and the checkpoint's line
// check walk the written lines, a map; with several corrupted lines both must
// name the lowest address on every run, not whichever line the walk met first.
func TestReportsNameTheLowestLine(t *testing.T) {
	const src = `
_start:
    li   a1, 0x20000
    li   t0, 0x55
    sd   t0, 0(a1)
    sd   t0, 128(a1)
    sd   t0, 512(a1)
    sd   t0, 1024(a1)
    li   t1, 200
loop:
    sd   t1, 256(a1)
    addi t1, t1, -1
    bnez t1, loop
` + exitEpilogue
	prog := mustAssemble(t, src)
	wantLine := fmt.Sprintf("[%#x]: core=0x5d emu=0x55", poisonAddr+128)
	var first string
	for i := 0; i < 20; i++ {
		s := NewSession(prog, Options{})
		for s.Commits() < 40 && !s.Done() {
			s.Step()
		}
		c := s.Hart(0).Core()
		c.InjectMemBit(poisonAddr+1024, 3)
		c.InjectMemBit(poisonAddr+128, 3)
		c.InjectMemBit(poisonAddr+512, 3)
		if _, err := s.Checkpoint(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("[%#x] core=0x5d emu=0x55", poisonAddr+128)) {
			t.Fatalf("run %d: Checkpoint: %v, want the line at %#x", i, err, poisonAddr+128)
		}
		r := stepToEnd(s)
		s.Release()
		if r.Kind != "mem" || r.Field != "addr" || !strings.Contains(r.Report, "\n  "+wantLine+"\n") {
			t.Fatalf("run %d: want a mem/addr divergence naming %q, got kind %q field %q:\n%s", i, wantLine, r.Kind, r.Field, r.Report)
		}
		if i == 0 {
			first = r.Report
		} else if r.Report != first {
			t.Fatalf("run %d: report differs from run 0:\n%s\nvs\n%s", i, r.Report, first)
		}
	}
}

// TestCheckpointNamesTheLowestCSR: a checkpoint refused over several differing
// CSRs names the lowest-numbered one, as the halt-time compare lists them.
func TestCheckpointNamesTheLowestCSR(t *testing.T) {
	prog := mustAssemble(t, finalStateProgram)
	for i := 0; i < 20; i++ {
		s := NewSession(prog, Options{})
		for !s.Done() {
			s.Step()
		}
		m := s.Hart(0).Emu()
		m.SetCSR(isa.CSRStval, 1)
		m.SetCSR(isa.CSRMtval, 1)
		m.SetCSR(isa.CSRSscratch, 1)
		m.SetCSR(isa.CSRMscratch, 1)
		_, err := s.Checkpoint()
		s.Release()
		if want := "cosim: models differ at boundary: csr sscratch: 0x0 != 0x1"; err == nil || err.Error() != want {
			t.Fatalf("run %d: %v, want %s", i, err, want)
		}
	}
}
