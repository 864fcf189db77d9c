package cosim

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"xt910/internal/asm"
	"xt910/internal/core"
	"xt910/internal/emu"
	"xt910/internal/trace"
	"xt910/isa"
)

// irqSession builds and runs one IRQ-mode session for seed, returning the
// session and result (the caller inspects core stats or the report).
func irqSession(t *testing.T, seed int64, sinks ...trace.Sink) (*Session, Result) {
	t.Helper()
	src, sched := GenerateSource(seed, 0, Options{Modes: Modes{IRQ: true}})
	prog, err := asm.Assemble(src, asm.Options{Base: 0x1000, Compress: true})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	s := NewSession(prog, Options{Modes: Modes{IRQ: true}, IRQSchedule: sched})
	var tr *trace.Tracer
	if len(sinks) > 0 {
		tr = trace.New(trace.Config{}, sinks...)
		s.Hart(0).Core().AttachTracer(tr)
	}
	r := stepToEnd(s)
	if tr != nil {
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return s, r
}

// TestIRQFixedSeeds locks the interrupt-injection protocol over seeds 1..60:
// deterministic per-seed mip schedules delivered to both models at identical
// commit indices, with delivery-time mcause/mepc/mstatus validation.
func TestIRQFixedSeeds(t *testing.T) {
	frs, err := RunSeeds(context.Background(), seedRange(1, 60), 0, Options{Modes: Modes{IRQ: true}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range frs {
		if fr.Diverged {
			t.Errorf("seed %d diverged:\n%s\nshrunk:\n%s", fr.Seed, fr.Result.Report, fr.Shrunk)
		}
	}
}

// TestIRQDeterministic checks IRQ-mode results are identical at any worker
// count — the schedule mutation done by WFI force-arming must stay inside one
// session.
func TestIRQDeterministic(t *testing.T) {
	seeds := seedRange(1, 12)
	a, err := RunSeeds(context.Background(), seeds, 0, Options{Modes: Modes{IRQ: true}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSeeds(context.Background(), seeds, 0, Options{Modes: Modes{IRQ: true}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("IRQ results differ between jobs=1 and jobs=8")
	}
}

// squashCountSink counts µops killed by asynchronous-interrupt delivery.
type squashCountSink struct{ n int }

func (s *squashCountSink) Emit(r *trace.Record) error {
	if !r.Retired && r.Cause == trace.SquashInterrupt {
		s.n++
	}
	return nil
}
func (s *squashCountSink) Close() error { return nil }

// TestIRQSquashInterruptInFlight pins the acceptance scenario: on seed 5 an
// interrupt is delivered while speculative µops are in flight, so delivery
// must squash them (SquashInterrupt records in the trace) and recovery must
// stay divergence-free. The seed also parks on WFI, exercising the bounded
// force-arm wakeup.
func TestIRQSquashInterruptInFlight(t *testing.T) {
	sink := &squashCountSink{}
	s, r := irqSession(t, 5, sink)
	if r.Diverged {
		t.Fatalf("seed 5 diverged:\n%s", r.Report)
	}
	st := &s.Hart(0).Core().Stats
	if st.Interrupts == 0 {
		t.Fatal("seed 5 delivered no interrupts")
	}
	if sink.n == 0 {
		t.Fatal("no µops were squashed by interrupt delivery — every interrupt hit an empty pipeline")
	}
	if st.WFIParkedCycles == 0 {
		t.Fatal("seed 5 contains WFI but no parked cycles were recorded")
	}
}

// TestIRQWatchdog checks the per-seed deadline path: an impossible budget
// reports TimedOut (after one 2× retry), not an error and not a divergence.
func TestIRQWatchdog(t *testing.T) {
	frs, err := RunSeeds(context.Background(), []int64{1}, 0,
		Options{Modes: Modes{IRQ: true}, SeedTimeout: time.Nanosecond}, 1)
	if err != nil {
		t.Fatal(err)
	}
	fr := frs[0]
	if !fr.TimedOut {
		t.Fatalf("1ns budget did not time out: %+v", fr.Result)
	}
	if !fr.Retried {
		t.Fatal("timed-out seed was not retried at 2× budget")
	}
	if fr.Diverged {
		t.Fatal("a timeout must not be reported as a divergence")
	}
}

// TestIRQDeliveryMismatchCaught proves the checker catches a model that
// swallows interrupts — the emulator's interrupt source is detached after
// construction, so the core delivers and the emulator does not, and the
// handler's first commit finds the emulator elsewhere — one that takes a
// different interrupt than the core (its delivery reported one cause up),
// and one that delivers with a wrong mcause.
func TestIRQDeliveryMismatchCaught(t *testing.T) {
	src, sched := GenerateSource(1, 0, Options{Modes: Modes{IRQ: true}})
	prog, err := asm.Assemble(src, asm.Options{Base: 0x1000, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { hookModels = nil }()
	for _, tc := range []struct {
		name        string
		hook        func(c *core.Core, m *emu.Machine)
		kind, field string
		line        string // the start of the detail line
	}{
		{"swallowed", func(c *core.Core, m *emu.Machine) { m.IntSource = nil }, "pc", "", "core commits pc="},
		{"cause", func(c *core.Core, m *emu.Machine) {
			took := m.OnInterrupt
			m.OnInterrupt = func(cause uint64) { took(cause + 1) }
		}, "irq", "cause", "cause: "},
		{"mcause", func(c *core.Core, m *emu.Machine) {
			took := m.OnInterrupt
			m.OnInterrupt = func(cause uint64) {
				took(cause)
				m.SetCSR(isa.CSRMcause, m.CSR(isa.CSRMcause)^1)
			}
		}, "irq", "", "mcause at delivery: "},
	} {
		hookModels = tc.hook
		r := Run(prog, Options{Modes: Modes{IRQ: true}, IRQSchedule: sched})
		if !r.Diverged || r.Kind != tc.kind || r.Field != tc.field || !strings.Contains(r.Report, "\n  "+tc.line) {
			t.Fatalf("%s: diverged=%v kind=%q field=%q, want %s field %q with a %q line\n%s",
				tc.name, r.Diverged, r.Kind, r.Field, tc.kind, tc.field, tc.line, r.Report)
		}
	}
}
