package bench

import (
	"bytes"
	"context"
	"testing"

	"xt910/internal/core"
	"xt910/internal/mem"
	"xt910/internal/trace"
	"xt910/internal/workloads"
)

// TestCPIStackExactAndKonataComplete is the observability property test: on
// every tier-1 workload, under both the XT910 and U74 configs, with
// fast-forward on and off, the top-down CPI stack must account for every
// simulated cycle exactly at both levels of the tree (buckets sum to
// Stats.Cycles, refined buckets sum to their parents), the per-PC table must
// reconcile with the backend buckets, and the Konata trace must contain one
// retired uop per architecturally retired instruction (and validate
// structurally).
func TestCPIStackExactAndKonataComplete(t *testing.T) {
	ctx := context.Background()
	o := Options{Quick: true}
	// The partition and completeness properties are per-cycle structural
	// invariants — one workload iteration exercises every stamp path; more
	// only lengthens the run (it is race-instrumented in tier1).
	const iters = 1
	for _, cfgOf := range []func() core.Config{core.XT910Config, core.U74Config} {
		for _, ff := range []bool{true, false} {
			cfg := cfgOf()
			cfg.FastForward = ff
			name := cfg.Name + "/ff=off/"
			if ff {
				name = cfg.Name + "/ff=on/"
			}
			for _, w := range workloads.All() {
				t.Run(name+w.Name, func(t *testing.T) {
					t.Parallel()
					p, err := w.Program(iters, true)
					if err != nil {
						t.Fatal(err)
					}
					var konata, jsonl bytes.Buffer
					tr := trace.New(trace.Config{},
						trace.NewKonataWriter(&konata), trace.NewJSONLWriter(&jsonl))
					r, err := runProgram(ctx, o, p, StockEnv().machine(cfg),
						setupFunc(func(c *core.Core, _ *mem.Memory) { c.AttachTracer(tr) }))
					if err != nil {
						t.Fatal(err)
					}
					if err := tr.Close(); err != nil {
						t.Fatal(err)
					}
					if r.CPI == nil {
						t.Fatal("no CPI stack captured")
					}
					if err := r.CPI.Check(r.Cycles); err != nil {
						t.Errorf("CPI stack inexact: %v (%s)", err, r.CPI)
					}
					if err := tr.PCs().Check(r.CPI); err != nil {
						t.Errorf("per-PC table inconsistent: %v", err)
					}
					if tr.Dropped != 0 {
						t.Fatalf("tracer evicted %d records; trace incomplete", tr.Dropped)
					}
					ks, err := trace.ValidateKonata(bytes.NewReader(konata.Bytes()))
					if err != nil {
						t.Fatalf("invalid Konata trace: %v", err)
					}
					if ks.Retired != r.Retired {
						t.Errorf("Konata retired uops = %d, Stats.Retired = %d", ks.Retired, r.Retired)
					}
					if jsonl.Len() == 0 && r.Retired > 0 {
						t.Error("JSONL sink produced no output")
					}
				})
			}
		}
	}
}
