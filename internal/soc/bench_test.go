package soc

import (
	"testing"

	"xt910/internal/asm"
)

// systemBenchSrc keeps two harts mostly parked: hart 0 takes a timer
// interrupt every PERIOD cycles and rings hart 1 from its handler, and each
// hart waits on wfi between interrupts; both exit after ROUNDS of them.
const systemBenchSrc = `
.equ PERIOD, 500
.equ ROUNDS, 40
.equ CLINT_MSIP,     0x02000000
.equ CLINT_MTIME,    0x0200BFF8
.equ CLINT_MTIMECMP, 0x02004000
_start:
    li   s2, 0            # interrupts taken
    li   s3, ROUNDS
    csrr t0, mhartid
    bnez t0, receiver
    la   t0, tick
    csrw mtvec, t0
    call arm
    li   t0, 0x80         # mie.MTIE
    csrw mie, t0
    j    wait
receiver:
    la   t0, ring
    csrw mtvec, t0
    li   t0, 0x8          # mie.MSIE
    csrw mie, t0
wait:
    li   t0, 0x8          # mstatus.MIE
    csrrs zero, mstatus, t0
park:
    wfi
    blt  s2, s3, park
    li   a0, 0
    li   a7, 93
    ecall
arm:
    li   t1, CLINT_MTIME
    ld   t2, 0(t1)
    addi t2, t2, PERIOD
    li   t1, CLINT_MTIMECMP
    sd   t2, 0(t1)
    ret
tick:
    addi s2, s2, 1
    call arm
    li   t1, CLINT_MSIP+4 # ring hart 1
    li   t2, 1
    sw   t2, 0(t1)
    mret
ring:
    addi s2, s2, 1
    li   t1, CLINT_MSIP+4 # acknowledge
    sw   zero, 0(t1)
    mret
`

// BenchmarkSystemRun times the SoC driver, System.Run on its event clock,
// over a 2-hart timer + IPI program: ns/simcycle is host time per system
// cycle, elided the share of core-cycles the clock jumped.
func BenchmarkSystemRun(b *testing.B) {
	p, err := asm.Assemble(systemBenchSrc, asm.Options{Base: 0x1000})
	if err != nil {
		b.Fatal(err)
	}
	var cycles, coreCycles, elided uint64
	for i := 0; i < b.N; i++ {
		s, err := New(smpConfig(2, 1))
		if err != nil {
			b.Fatal(err)
		}
		s.LoadProgram(p)
		cycles += s.Run(10_000_000)
		if !s.AllHalted() {
			b.Fatal("did not halt")
		}
		for _, c := range s.Cores {
			coreCycles += c.Now()
		}
		elided += s.FastForward().Elided()
		s.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/simcycle")
	b.ReportMetric(float64(elided)/float64(coreCycles), "elided")
}
