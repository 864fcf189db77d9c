package campaign

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"xt910/internal/cliflags"
)

// TestBenchItemTimeout: a bench item runs under the spec's Timeout, as a
// fuzz or inject seed does; an experiment that outlives it fails with the
// deadline instead of finishing late.
func TestBenchItemTimeout(t *testing.T) {
	spec := &Spec{Tool: "bench", Quick: true, Knobs: cliflags.Knobs{Timeout: time.Nanosecond}}
	if _, err := (toolRunner{}).Run(context.Background(), spec, Item{Exp: "fig17"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want an error wrapping DeadlineExceeded, got %v", err)
	}
}

// TestBenchItemLineIsDeterministic: two runs of a simulating experiment give
// byte-identical report lines — no wall time or host speed enters them — so
// merged and resumed reports stay byte-identical.
func TestBenchItemLineIsDeterministic(t *testing.T) {
	spec := &Spec{Tool: "bench", Quick: true}
	var lines [2]string
	for i := range lines {
		res, err := (toolRunner{}).Run(context.Background(), spec, Item{Exp: "fig17"})
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(res.Line)
	}
	if lines[0] != lines[1] {
		t.Fatalf("two runs of one item differ:\n%s\n%s", lines[0], lines[1])
	}
	for _, host := range []string{"host_mips", "sim_cycles_per_sec"} {
		if strings.Contains(lines[0], host) {
			t.Errorf("report line carries %s: %s", host, lines[0])
		}
	}
}
