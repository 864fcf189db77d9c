package soc

import (
	"testing"
)

func runSMP(t *testing.T, cfg Config, src string) *System {
	t.Helper()
	s := load(t, cfg, src)
	s.Run(50_000_000)
	if !s.AllHalted() {
		t.Fatal("system did not halt")
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.CoresPerCluster = 3
	if bad.Validate() == nil {
		t.Error("3 cores per cluster violates Table I")
	}
	bad = DefaultConfig()
	bad.L2SizeBytes = 16 << 20
	if bad.Validate() == nil {
		t.Error("16MB L2 violates Table I")
	}
	bad = DefaultConfig()
	bad.Clusters = 5
	if bad.Validate() == nil {
		t.Error("5 clusters violates §VI")
	}
	bad = DefaultConfig()
	bad.L2HitLatency = -1
	if bad.Validate() == nil {
		t.Error("negative L2 hit latency accepted")
	}
}

// smpConfig is DefaultConfig with the given topology.
func smpConfig(coresPerCluster, clusters int) Config {
	cfg := DefaultConfig()
	cfg.CoresPerCluster, cfg.Clusters = coresPerCluster, clusters
	return cfg
}

// the multi-core test program: each hart atomically adds (hartid+1) to a
// shared counter N times under an LR/SC spinlock, then hart 0 verifies.
const smpSrc = `
.equ N, 200
_start:
    csrr t0, mhartid
    la   t1, counter
    li   t2, N
loop:
    addi t3, t0, 1
retry:
    lr.d t4, (t1)
    add  t4, t4, t3
    sc.d t5, t4, (t1)
    bnez t5, retry
    addi t2, t2, -1
    bnez t2, loop
    # signal done: increment the done counter
    la   t1, done
incdone:
    lr.d t4, (t1)
    addi t4, t4, 1
    sc.d t5, t4, (t1)
    bnez t5, incdone
    csrr t0, mhartid
    bnez t0, halt      # secondaries exit 0
wait:
    ld   t4, 0(t1)
    li   t5, NCORES
    blt  t4, t5, wait
    la   t1, counter
    ld   a0, 0(t1)
    li   a7, 93
    ecall
halt:
    li   a0, 0
    li   a7, 93
    ecall
.align 3
counter: .dword 0
done:    .dword 0
`

func expectedSum(cores int) int {
	sum := 0
	for h := 0; h < cores; h++ {
		sum += (h + 1) * 200
	}
	return sum
}

func TestSMPSharedCounter4Cores(t *testing.T) {
	src := ".equ NCORES, 4\n" + smpSrc
	s := runSMP(t, smpConfig(4, 1), src)
	if got := s.Cores[0].ExitCode; got != expectedSum(4) {
		t.Fatalf("shared counter = %d, want %d", got, expectedSum(4))
	}
	// coherence activity must have occurred
	if s.Clusters[0].L2.Stats.Invalidations == 0 {
		t.Error("no coherence invalidations recorded")
	}
	if s.Clusters[0].L2.Stats.SnoopsFiltered == 0 {
		t.Error("snoop filter never engaged")
	}
}

func TestSMPMultiCluster(t *testing.T) {
	src := ".equ NCORES, 4\n" + smpSrc
	s := runSMP(t, smpConfig(2, 2), src)
	if got := s.Cores[0].ExitCode; got != expectedSum(4) {
		t.Fatalf("cross-cluster counter = %d, want %d", got, expectedSum(4))
	}
	if s.Ncore.Stats.Fetches == 0 {
		t.Error("inter-cluster traffic expected")
	}
}

func TestSMPDualCore(t *testing.T) {
	src := ".equ NCORES, 2\n" + smpSrc
	s := runSMP(t, smpConfig(2, 1), src)
	if got := s.Cores[0].ExitCode; got != expectedSum(2) {
		t.Fatalf("counter = %d, want %d", got, expectedSum(2))
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, uint64) {
		src := ".equ NCORES, 2\n" + smpSrc
		s := runSMP(t, smpConfig(2, 1), src)
		return s.Cores[0].ExitCode, s.Cores[0].Stats.Cycles
	}
	e1, c1 := run()
	e2, c2 := run()
	if e1 != e2 || c1 != c2 {
		t.Fatalf("simulation must be deterministic: (%d,%d) vs (%d,%d)", e1, c1, e2, c2)
	}
}

// tlbBroadcastSrc: hart 0 issues tlbi.asid, which must reach hart 1.
const tlbBroadcastSrc = `
_start:
    csrr t0, mhartid
    bnez t0, other
    li   t1, 7
    tlbi.asid t1
    li   a0, 0
    li   a7, 93
    ecall
other:
    li   a0, 0
    li   a7, 93
    ecall
`

func TestTLBBroadcast(t *testing.T) {
	s := load(t, smpConfig(2, 1), tlbBroadcastSrc)
	s.Run(100000)
	if !s.AllHalted() {
		t.Fatal("did not halt")
	}
	if s.Cores[1].MMU.Stats.ASIDFlushes == 0 {
		t.Fatal("tlbi.asid must broadcast to the other hart (§V-E)")
	}
}
