package campaign

import (
	"cmp"
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
// + opcode class — see cosim.Result.Signature). Per signature the repro with
// the lowest (campaign number, seed) is kept as a fixed-seed regression
// fixture, an assembly file runnable directly with `xtfuzz -repro`; the other
// repros are overwhelmingly the same root cause and are only counted. Which
// one is kept therefore does not depend on the order parallel shards report
// them in.
type Corpus struct {
	dir string

	mu      sync.Mutex
	entries map[string]*CorpusEntry
}

// CorpusEntry is one deduplicated divergence class.
type CorpusEntry struct {
	Signature string `json:"signature"`
	Seed      int64  `json:"seed"` // lowest seed that exposed the class
	Kind      string `json:"kind"`
	Modes     string `json:"modes,omitempty"`
	Campaign  string `json:"campaign"`       // earliest campaign that found it
	File      string `json:"file,omitempty"` // fixture filename (repro source present)
	Dups      int    `json:"dups"`           // other repros folded into this entry
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
// signature creates a fixture and an index entry and returns true. A repeat
// bumps the duplicate count; when it comes from a lower (campaign number,
// seed) than the entry holds, it also takes the entry's place — seed, kind,
// modes, campaign and fixture. Divergences without a signature (timeouts
// have none) are ignored.
func (c *Corpus) Add(campaignID string, d *Divergence) (bool, error) {
	if d == nil || d.Signature == "" {
		return false, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, seen := c.entries[d.Signature]
	if seen {
		e.Dups++
		if !reproBefore(campaignID, d.Seed, e.Campaign, e.Seed) {
			return false, c.saveIndexLocked()
		}
	} else {
		e = &CorpusEntry{Signature: d.Signature}
		c.entries[d.Signature] = e
	}
	e.Seed, e.Kind, e.Modes, e.Campaign = d.Seed, d.Kind, d.Modes, campaignID
	e.File = ""
	path := filepath.Join(c.dir, fixtureName(d.Signature))
	if d.Shrunk != "" {
		e.File = filepath.Base(path)
		if err := writeAtomic(path, []byte(fixtureSource(d))); err != nil {
			return false, err
		}
	} else if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return false, err
	}
	return !seen, c.saveIndexLocked()
}

// reproBefore orders repros by (campaign number, seed). The engine names
// campaigns c0001, c0002, …, so of two IDs the shorter is the lower number
// and IDs of one length compare as strings.
func reproBefore(campA string, seedA int64, campB string, seedB int64) bool {
	return cmp.Or(cmp.Compare(len(campA), len(campB)), strings.Compare(campA, campB),
		cmp.Compare(seedA, seedB)) < 0
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
