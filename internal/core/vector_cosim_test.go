package core

import (
	"fmt"
	"math/rand"
	"testing"

	"xt910/internal/asm"
	"xt910/internal/emu"
	"xt910/internal/mem"
)

// TestRandomVectorCoSim generates random vector programs (configuration
// changes, loads/stores, arithmetic, MACs, reductions) and verifies that the
// pipeline's vector architectural state and memory match the emulator's
// exactly — the vector path executes in its own ordered queue, so this guards
// its ordering rules.
func TestRandomVectorCoSim(t *testing.T) {
	rng := rand.New(rand.NewSource(771))
	for trial := 0; trial < 20; trial++ {
		src := genVectorProgram(rng)
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			p, err := asm.Assemble(src, asm.Options{Base: 0x1000})
			if err != nil {
				t.Fatal(err)
			}
			c, cm := buildCore(XT910Config())
			p.LoadInto(cm)
			c.Reset(p.Entry, 0x80000)
			for !c.Halted && c.Now() < 10_000_000 {
				c.Step()
				if msg := c.CheckInvariants(); msg != "" {
					t.Fatalf("cycle %d: %s", c.Now(), msg)
				}
			}

			m := emu.New(mem.NewMemory())
			p.LoadInto(m.Mem)
			m.PC = p.Entry
			m.X[2] = 0x80000
			if err := m.Run(10_000_000); err != nil {
				t.Fatal(err)
			}
			if !c.Halted || !m.Halted {
				t.Fatalf("halt: core=%v emu=%v", c.Halted, m.Halted)
			}
			if c.ExitCode != m.ExitCode {
				t.Fatalf("exit: core=%d emu=%d", c.ExitCode, m.ExitCode)
			}
			if !c.Vec.File.Equal(m.Vec.File) {
				for r := 0; r < 32; r++ {
					a, b := c.Vec.File.Bytes(r), m.Vec.File.Bytes(r)
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("v%d byte %d: core=%02x emu=%02x", r, i, a[i], b[i])
						}
					}
				}
			}
			// compare the scratch buffer contents (vector stores)
			base := p.Symbols["vbuf"]
			for off := uint64(0); off < 512; off += 8 {
				if got, want := c.Mem.Read(base+off, 8), m.Mem.Read(base+off, 8); got != want {
					t.Fatalf("vbuf+%d: core=%#x emu=%#x", off, got, want)
				}
			}
		})
	}
}

// genVectorProgram builds a random but well-formed vector program over a
// scratch buffer. Register groups are kept LMUL-aligned.
func genVectorProgram(rng *rand.Rand) string {
	var b []byte
	app := func(s string) { b = append(b, s...); b = append(b, '\n') }
	app("_start:")
	app("    la   s0, vbuf")
	app("    li   a0, 0")
	// seed the buffer deterministically
	app("    li   t0, 64")
	app("    mv   t1, s0")
	app("    li   t2, 0x9E3779B97F4A7C15")
	app("    li   t3, 1")
	app("init:")
	app("    mul  t3, t3, t2")
	app("    sd   t3, 0(t1)")
	app("    addi t1, t1, 8")
	app("    addi t0, t0, -1")
	app("    bnez t0, init")

	sews := []string{"e8", "e16", "e32", "e64"}
	lmuls := []string{"m1", "m2", "m4"}
	lmulOf := map[string]int{"m1": 1, "m2": 2, "m4": 4}
	n := 6 + rng.Intn(10)
	lm := lmuls[rng.Intn(len(lmuls))]
	group := lmulOf[lm]
	vreg := func() string { return fmt.Sprintf("v%d", rng.Intn(32/group)*group) }
	app(fmt.Sprintf("    li t0, %d", 1+rng.Intn(64)))
	app(fmt.Sprintf("    vsetvli t1, t0, %s, %s", sews[rng.Intn(len(sews))], lm))
	for i := 0; i < n; i++ {
		switch rng.Intn(9) {
		case 0: // reconfigure
			lm = lmuls[rng.Intn(len(lmuls))]
			group = lmulOf[lm]
			app(fmt.Sprintf("    li t0, %d", 1+rng.Intn(64)))
			app(fmt.Sprintf("    vsetvli t1, t0, %s, %s", sews[rng.Intn(len(sews))], lm))
		case 1:
			app(fmt.Sprintf("    vle.v %s, (s0)", vreg()))
		case 2:
			app(fmt.Sprintf("    vse.v %s, (s0)", vreg()))
		case 3:
			app(fmt.Sprintf("    vadd.vv %s, %s, %s", vreg(), vreg(), vreg()))
		case 4:
			app(fmt.Sprintf("    vmul.vv %s, %s, %s", vreg(), vreg(), vreg()))
		case 5:
			app(fmt.Sprintf("    vmacc.vv %s, %s, %s", vreg(), vreg(), vreg()))
		case 6:
			app(fmt.Sprintf("    li t2, %d", rng.Intn(1000)))
			app(fmt.Sprintf("    vmv.v.x %s, t2", vreg()))
		case 7:
			app(fmt.Sprintf("    vredsum.vs %s, %s, %s", vreg(), vreg(), vreg()))
		case 8: // scalar interleave: exercises vector/scalar ordering
			app(fmt.Sprintf("    vmv.x.s t3, %s", vreg()))
			app("    add  a0, a0, t3")
			app("    sd   t3, 504(s0)")
			app("    ld   t4, 504(s0)")
			app("    add  a0, a0, t4")
		}
	}
	app("    vmv.x.s t3, v0")
	app("    add  a0, a0, t3")
	app("    li a7, 93")
	app("    ecall")
	app(".align 6")
	app("vbuf: .space 1024")
	return string(b)
}
