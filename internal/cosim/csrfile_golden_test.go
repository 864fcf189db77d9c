package cosim

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"xt910/isa"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata/ from this build")

const csrKeysGoldenFile = "testdata/csrfile_keys_golden.txt"

// csrDumpLine renders a DumpCSRs image in address order.
func csrDumpLine(csrs map[uint16]uint64) string {
	nums := make([]int, 0, len(csrs))
	for n := range csrs {
		nums = append(nums, int(n))
	}
	sort.Ints(nums)
	var b strings.Builder
	for _, n := range nums {
		fmt.Fprintf(&b, " %s=%#x", isa.CSRName(uint16(n)), csrs[uint16(n)])
	}
	return b.String()
}

// TestCSRFileKeysGolden pins which CSRs the golden model has materialized —
// the keys of DumpCSRs, which a checkpoint records and a restore replays —
// and the checkpoint's encoded bytes, mid-run and at the end of fixed fuzz
// seeds in the three single-hart modes. The file was written by the commit
// before the CSR file replaced a map, where a CSR existed exactly when it had
// been written; a CSR that appears early, late or not at all moves a line.
func TestCSRFileKeysGolden(t *testing.T) {
	var lines []string
	for _, fc := range []fuzzCase{{"", 3}, {"paged", 3}, {"irq", 5}} {
		name := fmt.Sprintf("%s/%d", fc.modes, fc.seed)
		p, opts := fc.build(t)
		s := NewSession(p, opts)
		for s.Commits() < 150 && !s.Done() {
			s.Step()
		}
		var cp *Checkpoint
		for cp == nil && !s.Done() {
			var err error
			if cp, err = s.Checkpoint(); err != nil {
				s.Step() // the core took a trap the emulator has yet to: not a boundary
			}
		}
		if cp == nil {
			t.Fatalf("%s: no checkpoint boundary after commit 150", name)
		}
		var enc bytes.Buffer
		if err := cp.Encode(&enc); err != nil {
			t.Fatal(err)
		}
		lines = append(lines,
			fmt.Sprintf("%s commit %d csrs:%s", name, cp.Commits, csrDumpLine(cp.CSRs)),
			fmt.Sprintf("%s commit %d checkpoint: %d bytes sha256 %x", name, cp.Commits, enc.Len(), sha256.Sum256(enc.Bytes())))
		if r := stepToEnd(s); r.Diverged {
			t.Fatalf("%s diverged:\n%s", name, r.Report)
		}
		lines = append(lines, fmt.Sprintf("%s end csrs:%s", name, csrDumpLine(s.Hart(0).Emu().DumpCSRs())))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(csrKeysGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(csrKeysGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("CSR file contents moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}
