package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Corpus is the cross-campaign divergence corpus: shrunken reproducers
// deduplicated by divergence signature (compare kind + first diverging field
// + opcode class — see cosim.Result.Signature). The first repro of each
// signature is kept as a fixed-seed regression fixture, an assembly file
// runnable directly with `xtfuzz -repro`; later repros with the same
// signature are overwhelmingly the same root cause and are dropped.
type Corpus struct {
	dir string

	mu      sync.Mutex
	entries map[string]*CorpusEntry
}

// CorpusEntry is one deduplicated divergence class.
type CorpusEntry struct {
	Signature string `json:"signature"`
	Seed      int64  `json:"seed"` // first seed that exposed the class
	Kind      string `json:"kind"`
	Modes     string `json:"modes,omitempty"`
	Campaign  string `json:"campaign"`       // campaign that first found it
	File      string `json:"file,omitempty"` // fixture filename (repro source present)
	Dups      int    `json:"dups"`           // later repros folded into this entry
}

// OpenCorpus loads (or initializes) the corpus in dir.
func OpenCorpus(dir string) (*Corpus, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &Corpus{dir: dir, entries: make(map[string]*CorpusEntry)}
	b, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, err
	}
	var list []*CorpusEntry
	if err := json.Unmarshal(b, &list); err != nil {
		return nil, fmt.Errorf("campaign: corpus index: %w", err)
	}
	for _, e := range list {
		c.entries[e.Signature] = e
	}
	return c, nil
}

// Add records a divergence under its signature. The first sighting of a
// signature creates a fixture and an index entry and returns true; repeats
// only bump the duplicate count. Divergences without a signature (timeouts
// have none) are ignored.
func (c *Corpus) Add(campaignID string, d *Divergence) (bool, error) {
	if d == nil || d.Signature == "" {
		return false, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[d.Signature]; ok {
		e.Dups++
		return false, c.saveIndexLocked()
	}
	e := &CorpusEntry{
		Signature: d.Signature,
		Seed:      d.Seed,
		Kind:      d.Kind,
		Modes:     d.Modes,
		Campaign:  campaignID,
	}
	if d.Shrunk != "" {
		e.File = fixtureName(d.Signature)
		if err := writeAtomic(filepath.Join(c.dir, e.File), []byte(fixtureSource(d))); err != nil {
			return false, err
		}
	}
	c.entries[d.Signature] = e
	return true, c.saveIndexLocked()
}

// Entries returns the corpus sorted by signature (a stable order for the API
// and for diffing state directories).
func (c *Corpus) Entries() []*CorpusEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*CorpusEntry, 0, len(c.entries))
	for _, e := range c.entries {
		cp := *e
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Signature < out[j].Signature })
	return out
}

// Fixture returns the fixture source for a signature, when one exists.
func (c *Corpus) Fixture(sig string) (string, bool) {
	c.mu.Lock()
	e, ok := c.entries[sig]
	c.mu.Unlock()
	if !ok || e.File == "" {
		return "", false
	}
	b, err := os.ReadFile(filepath.Join(c.dir, e.File))
	if err != nil {
		return "", false
	}
	return string(b), true
}

func (c *Corpus) saveIndexLocked() error {
	list := make([]*CorpusEntry, 0, len(c.entries))
	for _, e := range c.entries {
		list = append(list, e)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].Signature < list[j].Signature })
	b, err := json.MarshalIndent(list, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(filepath.Join(c.dir, "index.json"), append(b, '\n'))
}

// fixtureName maps a signature to a filesystem-safe fixture filename.
func fixtureName(sig string) string {
	s := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, sig)
	return s + ".s"
}

// fixtureSource renders a regression fixture: the shrunken reproducer with a
// comment header the assembler skips (it accepts '#' comments), so the file
// runs unmodified under `xtfuzz -repro`.
func fixtureSource(d *Divergence) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# cosim regression fixture (auto-emitted by the campaign service)\n")
	fmt.Fprintf(&b, "# signature: %s\n", d.Signature)
	fmt.Fprintf(&b, "# seed: %d\n", d.Seed)
	if d.Modes != "" {
		fmt.Fprintf(&b, "# run: xtfuzz -modes %s -repro <this file>\n", d.Modes)
	} else {
		fmt.Fprintf(&b, "# run: xtfuzz -repro <this file>\n")
	}
	b.WriteString(d.Shrunk)
	if !strings.HasSuffix(d.Shrunk, "\n") {
		b.WriteByte('\n')
	}
	return b.String()
}
