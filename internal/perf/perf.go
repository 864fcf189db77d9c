// Package perf provides result-reporting plumbing for the paper-reproduction
// harness (formatted paper-vs-measured tables) and the first-order area/power
// model behind Table II.
package perf

import (
	"fmt"
	"math"
	"strings"
)

// Row is one line of a reproduced table or figure. The JSON names feed the
// xtbench -json output.
type Row struct {
	Label    string  `json:"label"`
	Measured float64 `json:"measured"`
	Paper    float64 `json:"paper,omitempty"` // 0: the paper gives no number for this row
	Unit     string  `json:"unit,omitempty"`
	Note     string  `json:"note,omitempty"`

	// CPI, when non-empty, is the row's top-down CPI-stack breakdown
	// (xtbench -cpistack), rendered on a continuation line.
	CPI string `json:"cpi,omitempty"`

	// CPIPC, when non-empty, is the row's per-PC backend-stall attribution
	// (the hottest stall PCs plus an exact "other" remainder), rendered on a
	// continuation line under the CPI stack.
	CPIPC string `json:"cpipc,omitempty"`

	// Interrupts and WFIParked surface the run's asynchronous-interrupt
	// deliveries and WFI-parked cycles (omitted for rows without a run, and
	// for runs that never took an interrupt or parked).
	Interrupts uint64 `json:"interrupts,omitempty"`
	WFIParked  uint64 `json:"wfi_parked,omitempty"`
}

// Result is one reproduced experiment.
type Result struct {
	ID    string   `json:"id"` // "fig17", "table2", …
	Title string   `json:"title"`
	Rows  []Row    `json:"rows"`
	Notes []string `json:"notes,omitempty"`
}

// Format renders the result as an aligned text table.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	width := 10
	for _, row := range r.Rows {
		if len(row.Label) > width {
			width = len(row.Label)
		}
	}
	fmt.Fprintf(&b, "  %-*s  %12s  %12s  %s\n", width, "item", "measured", "paper", "unit")
	for _, row := range r.Rows {
		paper := "—"
		if row.Paper != 0 {
			paper = fmt.Sprintf("%12.3f", row.Paper)
		}
		fmt.Fprintf(&b, "  %-*s  %12.3f  %12s  %s", width, row.Label, row.Measured, paper, row.Unit)
		if row.Note != "" {
			fmt.Fprintf(&b, "   (%s)", row.Note)
		}
		b.WriteByte('\n')
		if row.CPI != "" {
			fmt.Fprintf(&b, "  %-*s    cpi: %s\n", width, "", row.CPI)
		}
		if row.CPIPC != "" {
			fmt.Fprintf(&b, "  %-*s    cpipc: %s\n", width, "", row.CPIPC)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Geomean returns the geometric mean of vs (1.0 for empty input).
func Geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 1
	}
	prod := 1.0
	for _, v := range vs {
		prod *= v
	}
	return math.Pow(prod, 1/float64(len(vs)))
}
