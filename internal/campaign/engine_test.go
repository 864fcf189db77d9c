package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"xt910/internal/cliflags"
)

// waitStatus polls until the campaign reaches want (or fails the test).
func waitStatus(t *testing.T, e *Engine, id, want string) Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		s, ok := e.Get(id)
		if !ok {
			t.Fatalf("campaign %s vanished", id)
		}
		if s.Status == want {
			return s
		}
		if s.Status == StatusFailed && want != StatusFailed {
			t.Fatalf("campaign %s failed: %s", id, s.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %s (want %s): %+v", id, s.Status, want, s)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitItemsDone polls until at least n items have been journaled.
func waitItemsDone(t *testing.T, e *Engine, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		s, ok := e.Get(id)
		if !ok {
			t.Fatalf("campaign %s vanished", id)
		}
		if s.ItemsDone >= n {
			return
		}
		if s.Status == StatusFailed {
			t.Fatalf("campaign %s failed: %s", id, s.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck at %d items (want >= %d)", id, s.ItemsDone, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// gateRunner wraps the real runner but blocks every item after the first
// `allow` until the context dies — guaranteeing the engine is killed
// mid-shard with a known number of items journaled.
type gateRunner struct {
	inner Runner
	allow int

	mu sync.Mutex
	n  int
}

func (g *gateRunner) Run(ctx context.Context, spec *Spec, it Item) (ItemResult, error) {
	g.mu.Lock()
	idx := g.n
	g.n++
	g.mu.Unlock()
	if idx >= g.allow {
		<-ctx.Done()
		return ItemResult{}, ctx.Err()
	}
	return g.inner.Run(ctx, spec, it)
}

// runToReport submits the spec on a fresh engine over dir and returns the
// finished merged report.
func runToReport(t *testing.T, dir string, spec *Spec) []byte {
	t.Helper()
	e, err := Open(Options{StateDir: dir, Jobs: 2})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer e.Close()
	id, err := e.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitStatus(t, e, id, StatusDone)
	rep, err := e.Report(id)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	return rep
}

// TestResumeByteIdentical is the acceptance property: a campaign interrupted
// mid-shard (engine killed with items in flight) and resumed by a fresh
// engine over the same state dir produces a merged report byte-identical to
// an uninterrupted run — in the base profile and under -modes smp.
func TestResumeByteIdentical(t *testing.T) {
	specs := map[string]*Spec{
		"base": {Tool: "fuzz", Knobs: cliflags.Knobs{N: 6, Seed: 1}, Shards: 2, Segs: 10},
		"smp":  {Tool: "fuzz", Knobs: cliflags.Knobs{N: 4, Seed: 1, Modes: "smp"}, Shards: 2, Segs: 8},
	}
	for name, spec := range specs {
		spec := spec
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			straight := runToReport(t, t.TempDir(), spec)

			// Interrupted run: let 2 items finish, then drain mid-shard.
			dir := t.TempDir()
			e, err := Open(Options{StateDir: dir, Jobs: 2,
				Runner: &gateRunner{inner: toolRunner{}, allow: 2}})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			id, err := e.Submit(spec)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			waitItemsDone(t, e, id, 2)
			e.Close()

			if s, _ := e.Get(id); s.Status == StatusDone {
				t.Fatal("campaign finished before the interrupt; gate did not hold")
			}

			// Fresh engine over the same state dir: must resume, not restart.
			e2, err := Open(Options{StateDir: dir, Jobs: 3})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer e2.Close()
			s := waitStatus(t, e2, id, StatusDone)
			if s.ItemsDone != s.Items {
				t.Fatalf("resumed campaign incomplete: %d/%d", s.ItemsDone, s.Items)
			}
			resumed, err := e2.Report(id)
			if err != nil {
				t.Fatalf("report: %v", err)
			}
			if !bytes.Equal(straight, resumed) {
				t.Fatalf("resumed report differs from uninterrupted run\nstraight:\n%s\nresumed:\n%s",
					straight, resumed)
			}
		})
	}
}

// stubRunner synthesizes results without simulating: seeds in divSeeds
// "diverge" with the given signature.
type stubRunner struct {
	sigFor func(seed int64) string // "" = clean
}

func (s stubRunner) Run(ctx context.Context, spec *Spec, it Item) (ItemResult, error) {
	line, _ := json.Marshal(map[string]any{"seed": it.Seed, "status": "ok"})
	res := ItemResult{Line: line}
	if sig := s.sigFor(it.Seed); sig != "" {
		res.Div = &Divergence{
			Seed:      it.Seed,
			Signature: sig,
			Kind:      "xreg",
			Report:    fmt.Sprintf("divergence for seed %d", it.Seed),
			Shrunk:    fmt.Sprintf("_start:\n    li x5, %d\n    ebreak\n", it.Seed),
		}
	}
	return res, nil
}

// TestCorpusDedupBySignature: same-signature repros fold into one corpus
// entry (lowest seed wins, duplicates counted); distinct signatures get
// distinct entries and fixtures.
func TestCorpusDedupBySignature(t *testing.T) {
	dir := t.TempDir()
	sigs := map[int64]string{
		1: "xreg/x5/alu",
		3: "xreg/x5/alu", // same root cause as seed 1
		5: "mem/addr/store",
		7: "xreg/x5/alu", // and again
	}
	e, err := Open(Options{StateDir: dir, Jobs: 2,
		Runner: stubRunner{sigFor: func(seed int64) string { return sigs[seed] }}})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer e.Close()
	id, err := e.Submit(&Spec{Tool: "fuzz", Knobs: cliflags.Knobs{N: 8, Seed: 1}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	s := waitStatus(t, e, id, StatusDone)
	if s.Divergences != 4 {
		t.Fatalf("campaign saw %d divergences, want 4", s.Divergences)
	}

	entries := e.Corpus().Entries()
	if len(entries) != 2 {
		t.Fatalf("corpus holds %d entries, want 2 (deduped from 4 divergences): %+v", len(entries), entries)
	}
	bySig := map[string]*CorpusEntry{}
	for _, en := range entries {
		bySig[en.Signature] = en
	}
	alu := bySig["xreg/x5/alu"]
	if alu == nil || alu.Seed != 1 || alu.Dups != 2 {
		t.Fatalf("xreg/x5/alu entry wrong (want lowest seed 1, 2 dups): %+v", alu)
	}
	mem := bySig["mem/addr/store"]
	if mem == nil || mem.Seed != 5 || mem.Dups != 0 {
		t.Fatalf("mem/addr/store entry wrong: %+v", mem)
	}

	// Fixtures are runnable assembly with the provenance header.
	src, ok := e.Corpus().Fixture("xreg/x5/alu")
	if !ok {
		t.Fatal("no fixture for xreg/x5/alu")
	}
	for _, want := range []string{"# signature: xreg/x5/alu", "# seed: 1", "li x5, 1"} {
		if !bytes.Contains([]byte(src), []byte(want)) {
			t.Fatalf("fixture missing %q:\n%s", want, src)
		}
	}

	// The corpus survives a restart and stays deduplicated.
	e.Close()
	e2, err := Open(Options{StateDir: dir, Jobs: 1,
		Runner: stubRunner{sigFor: func(int64) string { return "" }}})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e2.Close()
	if got := len(e2.Corpus().Entries()); got != 2 {
		t.Fatalf("corpus reloaded with %d entries, want 2", got)
	}
}

func TestJournalTornTailAndDuplicates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard0.jsonl")
	good1, _ := json.Marshal(journalEntry{Index: 0, Line: json.RawMessage(`{"seed":1}`)})
	good2, _ := json.Marshal(journalEntry{Index: 1, Line: json.RawMessage(`{"seed":2}`)})
	dup, _ := json.Marshal(journalEntry{Index: 0, Line: json.RawMessage(`{"seed":1}`)})
	content := append(append(append(append([]byte{}, good1...), '\n'), good2...), '\n')
	content = append(content, dup...)
	content = append(content, '\n')
	content = append(content, []byte(`{"i":2,"line":{"se`)...) // torn tail
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := readJournal(path)
	if err != nil {
		t.Fatalf("readJournal: %v", err)
	}
	if len(entries) != 2 || entries[0].Index != 0 || entries[1].Index != 1 {
		t.Fatalf("want entries [0 1], got %+v", entries)
	}
	// Compaction rewrites a well-formed journal.
	if err := compactJournal(path, entries); err != nil {
		t.Fatalf("compact: %v", err)
	}
	again, err := readJournal(path)
	if err != nil || len(again) != 2 {
		t.Fatalf("compacted journal unreadable: %v %+v", err, again)
	}
}

func TestShardItemsPartition(t *testing.T) {
	spec := &Spec{Tool: "fuzz", Knobs: cliflags.Knobs{N: 11, Seed: 100}, Shards: 3}
	shards := spec.ShardItems()
	if len(shards) != 3 {
		t.Fatalf("want 3 shards, got %d", len(shards))
	}
	var flat []Item
	for _, sh := range shards {
		flat = append(flat, sh...)
	}
	items := spec.Items()
	if len(flat) != len(items) {
		t.Fatalf("shards cover %d items, want %d", len(flat), len(items))
	}
	for i := range items {
		if flat[i] != items[i] {
			t.Fatalf("shard concatenation reorders item %d: %+v != %+v", i, flat[i], items[i])
		}
	}
	for _, sh := range shards {
		if len(sh) < 3 || len(sh) > 4 {
			t.Fatalf("uneven shard sizes: %d", len(sh))
		}
	}
	// More shards than items degrades gracefully.
	tiny := &Spec{Tool: "fuzz", Knobs: cliflags.Knobs{N: 2, Seed: 1}, Shards: 8}
	if got := tiny.ShardItems(); len(got) != 2 {
		t.Fatalf("2 items across 8 shards: want 2 shards, got %d", len(got))
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []*Spec{
		{Tool: "nope"},
		{Tool: "fuzz"}, // n == 0
		{Tool: "fuzz", Knobs: cliflags.Knobs{N: 1, Modes: "warp"}},            // bad mode
		{Tool: "fuzz", Knobs: cliflags.Knobs{N: 1, Modes: "paged,smp"}},       // illegal combo
		{Tool: "fuzz", Knobs: cliflags.Knobs{N: 1}, Harts: 3},                 // no 3-core cluster (Table I)
		{Tool: "fuzz", Knobs: cliflags.Knobs{N: 1, Modes: "paged"}, Harts: 2}, // harts imply smp
		{Tool: "bench", Experiments: []string{"no-such-exp"}},
		{Tool: "fuzz", Knobs: cliflags.Knobs{N: 1}, Shards: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad spec %d accepted: %+v", i, s)
		}
	}
	good := []*Spec{
		{Tool: "fuzz", Knobs: cliflags.Knobs{N: 1}},
		{Tool: "inject", Knobs: cliflags.Knobs{N: 1}},
		{Tool: "bench"},
		{Tool: "bench", Experiments: []string{"table1", "table2"}},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Fatalf("good spec %d rejected: %v", i, err)
		}
	}
}
