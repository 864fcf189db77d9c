// Package campaign is the sharded, resumable campaign service behind
// cmd/xtcampd: it schedules fuzz (xtfuzz), fault-injection (xtinject) and
// benchmark (xtbench) campaigns as manifests of independent work items,
// journals every finished item to a state directory, and merges shard
// reports deterministically — the merged report of an interrupted-and-
// resumed campaign is byte-identical to an uninterrupted run at any shard
// count and any worker width, because items are keyed by their position in
// the manifest and each item's record depends only on its own inputs (the
// determinism-at-any-width contract of internal/sched, lifted to a service
// that can be killed and restarted).
//
// See DESIGN.md "Campaign service" for the manifest format, the checkpoint
// soundness argument and the divergence-signature scheme.
package campaign

import (
	"fmt"
	"time"

	"xt910/internal/bench"
	"xt910/internal/cliflags"
	"xt910/internal/cosim"
)

// Spec is a campaign manifest: which tool to run, the uniform campaign knobs
// (the same -n/-seed/-jobs/-timeout/-modes surface the CLIs expose, via
// cliflags.Knobs) and the tool-specific extras. A Spec plus the repo version
// fully determines the merged report.
type Spec struct {
	// Tool selects the campaign kind: "fuzz", "inject" or "bench".
	Tool string `json:"tool"`

	// Knobs is the uniform knob set. N/Seed span the seed range (fuzz and
	// inject), Jobs is the per-shard worker width (0: server default; the
	// report is identical at any width), Timeout is the per-seed (bench:
	// per-experiment) watchdog, Modes the fuzz mode spec.
	cliflags.Knobs

	// Shards splits the manifest into this many contiguous work ranges
	// (0 or 1: a single shard). Shard reports merge byte-identically, so
	// sharding changes scheduling granularity, never results.
	Shards int `json:"shards,omitempty"`

	// Fuzz extras (the xtfuzz flags of the same names).
	Segs   int    `json:"segs,omitempty"`
	Cycles uint64 `json:"cycles,omitempty"`
	Harts  int    `json:"harts,omitempty"`

	// Inject extras.
	FaultsPerSeed int `json:"faults_per_seed,omitempty"`

	// Bench extras: the experiment IDs to run (empty: every registered
	// experiment, in paper order) and the -quick profile.
	Experiments []string `json:"experiments,omitempty"`
	Quick       bool     `json:"quick,omitempty"`
}

// Item is one unit of campaign work: a seed (fuzz, inject) or an experiment
// (bench). Index is the item's position in the whole-campaign manifest — the
// key its report line merges under.
type Item struct {
	Index int    `json:"index"`
	Seed  int64  `json:"seed,omitempty"`
	Exp   string `json:"exp,omitempty"`
}

// Key names the item in logs and job IDs.
func (it Item) Key() string {
	if it.Exp != "" {
		return "exp:" + it.Exp
	}
	return fmt.Sprintf("seed:%d", it.Seed)
}

// Validate checks the manifest before admission.
func (s *Spec) Validate() error {
	switch s.Tool {
	case "fuzz", "inject":
		if s.N <= 0 {
			return fmt.Errorf("campaign: tool %q needs n > 0 seeds", s.Tool)
		}
		if _, err := s.fuzzOptions(); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	case "bench":
		for _, id := range s.Experiments {
			if _, ok := bench.Find(id); !ok {
				return fmt.Errorf("campaign: unknown experiment %q", id)
			}
		}
	default:
		return fmt.Errorf("campaign: unknown tool %q (want fuzz, inject or bench)", s.Tool)
	}
	if s.Shards < 0 {
		return fmt.Errorf("campaign: negative shard count")
	}
	if s.Timeout < 0 {
		return fmt.Errorf("campaign: negative timeout")
	}
	return nil
}

// fuzzOptions are the session options a fuzz item runs with, validated: a
// legal mode spec can still make an illegal machine with harts.
func (s *Spec) fuzzOptions() (cosim.Options, error) {
	modes, err := s.CosimModes()
	if err != nil {
		return cosim.Options{}, err
	}
	opts := cosim.Options{MaxCycles: s.Cycles, Modes: modes, Harts: s.Harts, SeedTimeout: s.SeedTimeout()}
	return opts, opts.Validate()
}

// Items expands the manifest into its full work list, in report order.
func (s *Spec) Items() []Item {
	var out []Item
	switch s.Tool {
	case "fuzz", "inject":
		for i, seed := range s.Seeds() {
			out = append(out, Item{Index: i, Seed: seed})
		}
	case "bench":
		ids := s.Experiments
		if len(ids) == 0 {
			for _, e := range bench.Experiments() {
				ids = append(ids, e.ID)
			}
		}
		for i, id := range ids {
			out = append(out, Item{Index: i, Exp: id})
		}
	}
	return out
}

// ShardItems splits the work list into the manifest's shard descriptors:
// contiguous near-equal ranges, earlier shards taking the remainder. The
// concatenation of the shards in order is exactly Items(), which is what
// makes the shard-report merge trivially byte-identical to an unsharded run.
func (s *Spec) ShardItems() [][]Item {
	items := s.Items()
	n := s.Shards
	if n <= 1 {
		return [][]Item{items}
	}
	if n > len(items) {
		n = len(items)
	}
	if n == 0 {
		return [][]Item{items}
	}
	out := make([][]Item, 0, n)
	base, rem := len(items)/n, len(items)%n
	start := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, items[start:start+size])
		start += size
	}
	return out
}

// SeedTimeout is the per-seed watchdog as a duration (Knobs serializes it in
// nanoseconds, like time.Duration JSON defaults).
func (s *Spec) SeedTimeout() time.Duration { return s.Timeout }
