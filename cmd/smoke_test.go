// Package cmd holds the end-to-end smoke for the CLIs under it.
package cmd

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLISmoke is `make cli-smoke`: every row runs a real CLI binary twice —
// at -jobs 1 and at the default worker-pool width — and both runs must exit 0
// with byte-identical stdout and output files. Exit 0 is each tool's own
// verdict: xtfuzz found no divergence in the fixed seed set of that mode,
// xtinject's control runs stayed clean and no architectural-state fault went
// silent, xttrace's -selfcheck held (CPI buckets sum to total cycles, the
// Konata trace validates with one retired µop per retired instruction), and
// each examples/ program ran to its end (they have no worker pool: both runs
// are the same). Gated behind XT_CLI_SMOKE=1 so the ordinary test sweep does not pay for
// the binary builds.
func TestCLISmoke(t *testing.T) {
	if os.Getenv("XT_CLI_SMOKE") == "" {
		t.Skip("set XT_CLI_SMOKE=1 (or run `make cli-smoke`) for the CLI smoke")
	}
	rows := []struct {
		name, tool string
		args       []string // {dir} is the run's own output directory
		jobs       bool     // the tool has a worker pool: the first run gets -jobs 1
		files      []string // written under {dir}, compared like stdout
	}{
		{"fuzz", "xtfuzz", []string{"-json", "-n", "200", "-seed", "1"}, true, nil},
		// S-mode/SV39: page-crossing, page-fault and VA-vs-PA reservation segments
		{"fuzz-paged", "xtfuzz", []string{"-json", "-modes", "paged", "-n", "60", "-seed", "1"}, true, nil},
		// a commit-indexed mip schedule driven into both models
		{"fuzz-irq", "xtfuzz", []string{"-json", "-modes", "irq", "-n", "60", "-seed", "1"}, true, nil},
		// SPMD harts over one memory, under the store-order oracle
		{"fuzz-smp", "xtfuzz", []string{"-json", "-modes", "smp", "-n", "40", "-seed", "1"}, true, nil},
		// both at once: MSIP doorbells beside the schedules (seeds 1–40 are
		// clear of the known irq divergences, ROADMAP 2a)
		{"fuzz-smp-irq", "xtfuzz", []string{"-json", "-modes", "smp,irq", "-n", "40", "-seed", "1"}, true, nil},
		{"inject", "xtinject", []string{"-n", "6", "-faults", "6"}, true, nil},
		{"trace", "xttrace", []string{"-selfcheck", "-iters", "2", "-konata", "{dir}/t.kanata", "-jsonl", "{dir}/t.jsonl", "eembc-a2time"},
			false, []string{"t.kanata", "t.jsonl"}},
		{"example-quickstart", "quickstart", nil, false, nil},
		{"example-toolchain", "toolchain", nil, false, nil},
		{"example-vector-ai", "vector_ai", nil, false, nil},
		{"example-multicore-smp", "multicore_smp", nil, false, nil},
		{"example-prefetch-tuning", "prefetch_tuning", nil, false, nil},
	}

	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"xt910/cmd/xtfuzz", "xt910/cmd/xtinject", "xt910/cmd/xttrace",
		"xt910/examples/quickstart", "xt910/examples/toolchain", "xt910/examples/vector_ai",
		"xt910/examples/multicore_smp", "xt910/examples/prefetch_tuning")
	if b, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, b)
	}

	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			// run executes the row once and returns stdout followed by the
			// row's output files.
			run := func(extra ...string) [][]byte {
				dir := t.TempDir()
				args := append([]string(nil), extra...)
				for _, a := range row.args {
					args = append(args, strings.ReplaceAll(a, "{dir}", dir))
				}
				cmd := exec.Command(filepath.Join(bin, row.tool), args...)
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%s %s: %v\n%s%s", row.tool, strings.Join(args, " "), err, stdout.Bytes(), stderr.Bytes())
				}
				out := [][]byte{stdout.Bytes()}
				for _, f := range row.files {
					b, err := os.ReadFile(filepath.Join(dir, f))
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, b)
				}
				return out
			}
			var first [][]byte
			if row.jobs {
				first = run("-jobs", "1")
			} else {
				first = run()
			}
			second := run()
			for i, name := range append([]string{"stdout"}, row.files...) {
				if !bytes.Equal(first[i], second[i]) {
					t.Errorf("%s differs between the two runs (%d and %d bytes)", name, len(first[i]), len(second[i]))
				}
			}
		})
	}
}
