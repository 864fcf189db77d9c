package cosim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"strings"
	"testing"

	"xt910/internal/asm"
)

const sourceTextGoldenFile = "testdata/source_text_golden.txt"

var genModes = []string{"", "paged", "irq", "smp", "smp,irq"}

// TestPickOneRowDrawsNothing: a one-row table emits its row without drawing
// from the stream, so a table cut down to one kind leaves every later draw
// where it was.
func TestPickOneRowDrawsNothing(t *testing.T) {
	g, ref := &gen{rng: rand.New(rand.NewSource(1))}, rand.New(rand.NewSource(1))
	emitted := false
	g.pick([]segRow{{weight: 5, emit: func(*gen) { emitted = true }}})
	if !emitted {
		t.Fatal("the row was not emitted")
	}
	if g.rng.Int63() != ref.Int63() {
		t.Fatal("picking from a one-row table drew from the stream")
	}
}

// goldenMasks are three fixed shrink masks over n segments: every other
// segment, the first half, and one segment in seven.
func goldenMasks(n int) [3][]bool {
	var ms [3][]bool
	for k := range ms {
		ms[k] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		ms[0][i] = i%2 == 0
		ms[1][i] = i < n/2
		ms[2][i] = i%7 == 3
	}
	return ms
}

// TestGoldenSourceText pins the text a generated program is shown as — what
// GenerateSource returns and what a shrunk reproducer prints under three fixed
// masks — for seeds 1–100 in every mode. The file was captured on the commit
// before the generator stopped producing text, so the items it emits now must
// remember how each line was spelled (li, la, csrr, beqz, …).
func TestGoldenSourceText(t *testing.T) {
	var lines []string
	for _, modes := range genModes {
		m, err := ParseModes(modes)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Modes: m}
		for seed := int64(1); seed <= 100; seed++ {
			src, _ := GenerateSource(seed, 0, opts)
			line := fmt.Sprintf("%s/%d: source=%x", modes, seed, sha256.Sum256([]byte(src)))
			p := generate(seed, 40, m, opts.effectiveHarts())
			if full := p.render(nil); full != src {
				t.Fatalf("%s/%d: render(nil) is not the GenerateSource text", modes, seed)
			}
			shrunk := sha256.New()
			for _, mask := range goldenMasks(len(p.segs)) {
				shrunk.Write([]byte(p.render(mask)))
			}
			lines = append(lines, fmt.Sprintf("%s masks=%x", line, shrunk.Sum(nil)))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(sourceTextGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(sourceTextGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d golden texts, file has %d", len(lines), len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("generated text moved:\n got %s\nwant %s", lines[i], want[i])
		}
	}
}

// sameImage compares everything a Program carries.
func sameImage(a, b *asm.Program) bool {
	return a.Base == b.Base && a.Entry == b.Entry && a.NumInsts == b.NumInsts &&
		bytes.Equal(a.Data, b.Data) && maps.Equal(a.Symbols, b.Symbols)
}

// bothWays builds p under mask through each front end: directly from its
// Items, and by assembling the text render prints.
func bothWays(p *program, mask []bool) (direct, text *asm.Program, err error) {
	if direct, err = p.build(mask); err != nil {
		return nil, nil, fmt.Errorf("direct build: %w", err)
	}
	if text, err = asm.Assemble(p.render(mask), asm.Options{Base: 0x1000, Compress: true}); err != nil {
		return nil, nil, fmt.Errorf("text build: %w", err)
	}
	return direct, text, nil
}

// TestDirectEqualsText: the two front ends are one assembler. For seeds 1–300
// in every mode, whole and under three random shrink masks, the image built
// straight from the generator's Items equals the image the text front end
// builds from the rendered source — bytes, base, entry, instruction count and
// the whole symbol table.
func TestDirectEqualsText(t *testing.T) {
	for _, modes := range genModes {
		m, err := ParseModes(modes)
		if err != nil {
			t.Fatal(err)
		}
		harts := Options{Modes: m}.effectiveHarts()
		for seed := int64(1); seed <= 300; seed++ {
			p := generate(seed, 0, m, harts)
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 4; k++ {
				var mask []bool // the first round keeps every segment
				if k > 0 {
					mask = make([]bool, len(p.segs))
					for i := range mask {
						mask[i] = rng.Intn(2) == 0
					}
				}
				direct, text, err := bothWays(p, mask)
				if err != nil {
					t.Fatalf("%q seed %d mask %v: %v", modes, seed, mask, err)
				}
				if !sameImage(direct, text) {
					t.Fatalf("%q seed %d mask %v: the direct build and the text build differ", modes, seed, mask)
				}
			}
		}
	}
}

// FuzzGenerate drives the generator and both assembler front ends with
// arbitrary seeds, sizes, mode sets and shrink masks: generation and the
// direct build never panic and never fail for a valid mode set, the text path
// yields the same image, and building twice yields the same bytes.
func FuzzGenerate(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0), []byte{0xff})
	f.Add(int64(2), uint8(40), uint8(1), []byte{0x55, 0xaa})
	f.Add(int64(3), uint8(40), uint8(2), []byte{})
	f.Add(int64(4), uint8(40), uint8(4), []byte{0x0f, 0xf0, 0x3c})
	f.Fuzz(func(t *testing.T, seed int64, nSegs, modeBits uint8, maskBits []byte) {
		m := Modes{Paged: modeBits&1 != 0, IRQ: modeBits&2 != 0, SMP: modeBits&4 != 0}
		if m.Validate() != nil {
			return
		}
		p := generate(seed, int(nSegs), m, Options{Modes: m}.effectiveHarts())
		var mask []bool
		if len(maskBits) > 0 {
			mask = make([]bool, len(p.segs))
			for i := range mask {
				mask[i] = maskBits[i/8%len(maskBits)]>>(i%8)&1 != 0
			}
		}
		direct, text, err := bothWays(p, mask)
		if err != nil {
			t.Fatal(err)
		}
		if !sameImage(direct, text) {
			t.Fatal("the direct build and the text build differ")
		}
		again, err := p.build(mask)
		if err != nil || !sameImage(direct, again) {
			t.Fatalf("building twice gave two images (err %v)", err)
		}
	})
}
