// Package-level benchmark harness: every experiment of the paper's
// evaluation (§X) that xtbench runs, as a sub-benchmark named by its id.
// `go test -bench=. -benchmem` regenerates them; each sub-benchmark reports
// the reproduced quantities as custom metrics so the -bench output doubles
// as the paper-vs-measured record.
package xt910_test

import (
	"context"
	"testing"

	"xt910/internal/bench"
	"xt910/internal/perf"
)

// BenchmarkExperiments runs each registered experiment at Quick size through
// bench.Run, reporting every row as a custom benchmark metric.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			var res *perf.Result
			for i := 0; i < b.N; i++ {
				r := bench.Run(context.Background(), bench.Options{Quick: true}, []bench.Experiment{e})[0]
				if r.Err != nil {
					b.Fatal(r.Err)
				}
				res = r.Value.(*perf.Result)
			}
			for _, row := range res.Rows {
				b.ReportMetric(row.Measured, metricName(row.Label))
			}
			b.Logf("\n%s", res.Format())
		})
	}
}

func metricName(label string) string {
	out := make([]rune, 0, len(label))
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
