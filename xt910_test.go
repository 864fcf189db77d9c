package xt910_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"xt910"
	"xt910/isa"
)

// The public-API tests exercise the facade exactly the way examples and
// downstream users do.

const apiProgram = `
_start:
    li   a0, 0
    li   t0, 64
loop:
    add  a0, a0, t0
    addi t0, t0, -1
    bnez t0, loop
    li   a7, 93
    ecall
`

func TestPublicAPIRoundTrip(t *testing.T) {
	sys, err := xt910.NewSystem(xt910.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sys.LoadAssembly(apiProgram, xt910.AsmOptions{Base: 0x1000, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(1_000_000)
	if !sys.AllHalted() {
		t.Fatal("system did not halt")
	}
	want := 64 * 65 / 2
	h := sys.Hart(0)
	if h.ExitCode() != want {
		t.Fatalf("exit = %d, want %d", h.ExitCode(), want)
	}
	if h.Stats().IPC() <= 0 {
		t.Fatal("stats empty")
	}
	if h.Reg(isa.A0) != uint64(want) {
		t.Fatal("register readback")
	}

	// the emulator must agree
	m := xt910.NewEmulator(prog)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if m.ExitCode != want {
		t.Fatalf("emulator exit = %d", m.ExitCode)
	}
}

func TestPublicConfigs(t *testing.T) {
	for _, cfg := range []xt910.CoreConfig{
		xt910.XT910Core(), xt910.U74Core(), xt910.A73Core(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestPublicMultiCore(t *testing.T) {
	cfg := xt910.DefaultConfig()
	cfg.CoresPerCluster = 2
	sys, err := xt910.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := `
_start:
    csrr a0, mhartid
    li   a7, 93
    ecall
`
	if _, err := sys.LoadAssembly(src, xt910.AsmOptions{Base: 0x1000}); err != nil {
		t.Fatal(err)
	}
	sys.Run(100000)
	if sys.Harts() != 2 {
		t.Fatalf("Harts() = %d, want 2", sys.Harts())
	}
	for i := 0; i < sys.Harts(); i++ {
		h := sys.Hart(i)
		if h.ID() != i {
			t.Fatalf("Hart(%d).ID() = %d", i, h.ID())
		}
		if h.ExitCode() != i {
			t.Fatalf("hart %d exit = %d, want the hart id", i, h.ExitCode())
		}
	}
}

func TestAssembleErrorsSurface(t *testing.T) {
	if _, err := xt910.Assemble("bogus a0", xt910.AsmOptions{}); err == nil {
		t.Fatal("expected assembly error")
	}
	cfg := xt910.DefaultConfig()
	cfg.CoresPerCluster = 3
	if _, err := xt910.NewSystem(cfg); err == nil {
		t.Fatal("expected Table I validation error")
	}
}

const spinForever = `
_start:
loop:
    j loop
`

func TestRunContext(t *testing.T) {
	newSys := func(t *testing.T, src string) *xt910.System {
		t.Helper()
		sys, err := xt910.NewSystem(xt910.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if src != "" {
			if _, err := sys.LoadAssembly(src, xt910.AsmOptions{Base: 0x1000}); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}

	t.Run("halts cleanly", func(t *testing.T) {
		sys := newSys(t, apiProgram)
		cycles, err := sys.RunContext(context.Background(), 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if cycles == 0 || !sys.AllHalted() {
			t.Fatalf("cycles=%d halted=%v", cycles, sys.AllHalted())
		}
		if sys.Hart(0).ExitCode() != 64*65/2 {
			t.Fatalf("exit = %d", sys.Hart(0).ExitCode())
		}
	})

	t.Run("no program loaded", func(t *testing.T) {
		sys := newSys(t, "")
		_, err := sys.RunContext(context.Background(), 1000)
		if !errors.Is(err, xt910.ErrNoProgram) {
			t.Fatalf("want ErrNoProgram, got %v", err)
		}
	})

	t.Run("cycle budget exhausted", func(t *testing.T) {
		sys := newSys(t, spinForever)
		cycles, err := sys.RunContext(context.Background(), 10_000)
		if !errors.Is(err, xt910.ErrDidNotHalt) {
			t.Fatalf("want ErrDidNotHalt, got %v", err)
		}
		if cycles != 10_000 {
			t.Fatalf("cycles = %d, want the full budget", cycles)
		}
	})

	t.Run("cancelled before start", func(t *testing.T) {
		sys := newSys(t, spinForever)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := sys.RunContext(ctx, 1_000_000)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	})

	t.Run("deadline mid-run", func(t *testing.T) {
		sys := newSys(t, spinForever)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		cycles, err := sys.RunContext(ctx, 1<<62)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want DeadlineExceeded, got %v", err)
		}
		if cycles == 0 {
			t.Fatal("the run must make progress before the deadline lands")
		}
		// the machine remains inspectable and resumable after cancellation
		if sys.AllHalted() {
			t.Fatal("spin loop cannot have halted")
		}
		if n := sys.Run(5_000); n != 5_000 {
			t.Fatalf("resume after cancel ran %d cycles, want 5000", n)
		}
	})

	t.Run("Run wrapper unchanged", func(t *testing.T) {
		sys := newSys(t, apiProgram)
		if sys.Run(1_000_000) == 0 || !sys.AllHalted() {
			t.Fatal("legacy Run must still drive the machine")
		}
	})
}

func TestTypedErrors(t *testing.T) {
	cfg := xt910.DefaultConfig()
	cfg.CoresPerCluster = 3
	_, err := xt910.NewSystem(cfg)
	if !errors.Is(err, xt910.ErrInvalidConfig) {
		t.Fatalf("want ErrInvalidConfig, got %v", err)
	}
	cfg = xt910.DefaultConfig()
	cfg.L2Ways = 5
	if _, err := xt910.NewSystem(cfg); !errors.Is(err, xt910.ErrInvalidConfig) {
		t.Fatalf("want ErrInvalidConfig for bad L2 ways, got %v", err)
	}
	// sentinels are distinct
	for _, pair := range [][2]error{
		{xt910.ErrInvalidConfig, xt910.ErrNoProgram},
		{xt910.ErrNoProgram, xt910.ErrDidNotHalt},
		{xt910.ErrDidNotHalt, xt910.ErrInvalidConfig},
	} {
		if errors.Is(pair[0], pair[1]) {
			t.Fatalf("sentinels alias: %v / %v", pair[0], pair[1])
		}
	}
}

func TestHartIndexValidation(t *testing.T) {
	sys, err := xt910.NewSystem(xt910.DefaultConfig()) // one hart: index 0 only
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.LoadAssembly(apiProgram, xt910.AsmOptions{Base: 0x1000}); err != nil {
		t.Fatal(err)
	}
	sys.Run(1_000_000)

	for _, bad := range []int{-1, 1, 64} {
		h := sys.Hart(bad)
		if h.Core() != nil {
			t.Fatalf("Hart(%d).Core() must be nil", bad)
		}
		if got := h.ExitCode(); got != 0 {
			t.Fatalf("Hart(%d).ExitCode() = %d, want 0", bad, got)
		}
		if got := h.Output(); got != nil {
			t.Fatalf("Hart(%d).Output() = %v, want nil", bad, got)
		}
		st := h.Stats()
		if st == nil {
			t.Fatalf("Hart(%d).Stats() must never be nil", bad)
		}
		if st.IPC() != 0 {
			t.Fatalf("Hart(%d).Stats() must be zeroed", bad)
		}
		if got := h.Reg(isa.A0); got != 0 {
			t.Fatalf("Hart(%d).Reg() = %d, want 0", bad, got)
		}
	}
	// the valid hart still reads through
	h := sys.Hart(0)
	if h.Core() == nil || h.ExitCode() != 64*65/2 || h.Stats().IPC() <= 0 {
		t.Fatal("valid hart accessors broken by bounds checking")
	}
}
