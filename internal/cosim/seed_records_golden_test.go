package cosim

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

const seedRecordsGoldenFile = "testdata/seed_records_golden.txt"

// TestSeedRecordsGolden pins the session clock cycle for cycle: one SHA-256
// per mode combination over the SeedRecord JSONL of seeds 1–200 — status,
// commits and cycles of every seed, what `xtfuzz -json` prints — followed by
// the divergence report of each seed that has one (the known `smp,irq` ones
// in that range: 83, 92, 189). The file was written by the commit before
// sessions learned to skip inert cycles; a host-only change to how a session
// passes time moves no line of it.
func TestSeedRecordsGolden(t *testing.T) {
	seeds := make([]int64, 200)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	var lines []string
	for _, spec := range []string{"", "paged", "irq", "smp", "smp,irq"} {
		modes, err := ParseModes(spec)
		if err != nil {
			t.Fatal(err)
		}
		frs, err := RunSeeds(context.Background(), seeds, 0, Options{Modes: modes}, 2)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		enc := json.NewEncoder(h)
		var diverged []string
		for _, fr := range frs {
			if err := enc.Encode(NewSeedRecord(fr)); err != nil {
				t.Fatal(err)
			}
			if fr.Diverged {
				fmt.Fprintf(h, "%s\n", fr.Result.Report)
				diverged = append(diverged, fmt.Sprint(fr.Seed))
			}
		}
		lines = append(lines, fmt.Sprintf("modes=%q seeds 1-200 sha256 %x diverged [%s]", spec, h.Sum(nil), strings.Join(diverged, " ")))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(seedRecordsGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(seedRecordsGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("seed records moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}
