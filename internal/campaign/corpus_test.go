package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// corpusArrival is one Add call: the campaign that found the divergence and
// the divergence itself.
type corpusArrival struct {
	campaign string
	div      Divergence
}

// corpusFiles reads every file of a corpus directory, index and fixtures.
func corpusFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = b
	}
	return files
}

// TestCorpusIndependentOfArrivalOrder feeds the same divergences to Add in
// two orders and gets the same index.json and fixtures: per signature the
// lowest (campaign number, seed) is kept, whichever arrives first.
func TestCorpusIndependentOfArrivalOrder(t *testing.T) {
	repro := func(campaign string, seed int64, sig string, shrunk bool) corpusArrival {
		d := Divergence{Seed: seed, Signature: sig, Kind: "xreg", Modes: "smp",
			Report: fmt.Sprintf("divergence for seed %d", seed)}
		if shrunk {
			d.Shrunk = fmt.Sprintf("_start:\n    li x5, %d\n    ebreak\n", seed)
		}
		return corpusArrival{campaign, d}
	}
	arrivals := []corpusArrival{
		repro("c0002", 7, "xreg/x5/alu", true),
		repro("c0002", 3, "xreg/x5/alu", true),
		repro("c0003", 1, "xreg/x5/alu", true),
		// c9999 is a lower campaign number than c10000 though not a lower string.
		repro("c10000", 2, "mem/addr/store", true),
		repro("c9999", 40, "mem/addr/store", false),
		repro("c9999", 41, "mem/addr/store", true),
	}
	run := func(order []corpusArrival) (string, map[string][]byte) {
		dir := t.TempDir()
		c, err := OpenCorpus(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := range order {
			if _, err := c.Add(order[i].campaign, &order[i].div); err != nil {
				t.Fatal(err)
			}
		}
		return dir, corpusFiles(t, dir)
	}
	reversed := make([]corpusArrival, len(arrivals))
	for i, a := range arrivals {
		reversed[len(arrivals)-1-i] = a
	}
	dir, fwd := run(arrivals)
	_, rev := run(reversed)
	for name, b := range fwd {
		if r, ok := rev[name]; !ok || !bytes.Equal(b, r) {
			t.Errorf("%s differs by arrival order:\nforward:\n%s\nreversed:\n%s", name, b, r)
		}
	}
	for name := range rev {
		if _, ok := fwd[name]; !ok {
			t.Errorf("%s exists only when the divergences arrive reversed", name)
		}
	}

	c, err := OpenCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]CorpusEntry{
		"xreg/x5/alu":    {Signature: "xreg/x5/alu", Seed: 3, Kind: "xreg", Modes: "smp", Campaign: "c0002", File: "xreg_x5_alu.s", Dups: 2},
		"mem/addr/store": {Signature: "mem/addr/store", Seed: 40, Kind: "xreg", Modes: "smp", Campaign: "c9999", Dups: 2},
	}
	for _, e := range c.Entries() {
		if *e != want[e.Signature] {
			t.Errorf("entry %+v, want %+v", *e, want[e.Signature])
		}
	}
	if _, ok := c.Fixture("mem/addr/store"); ok {
		t.Error("the kept mem/addr/store repro has no shrunk source, yet a fixture remains")
	}
}
