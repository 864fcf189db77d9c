package main

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"
)

const specFile = "../BENCHMARK.json"

// results runs the benchmark in-process at smoke size and returns the JSON
// result lines it printed, one per workload.
func results(t *testing.T, args ...string) []result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-smoke", "-spec", specFile, "-workdir", t.TempDir()}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	var out []result
	for _, line := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("result line: %v\n%s", err, line)
		}
		out = append(out, r)
	}
	return out
}

func names(defs ...[]metricDef) []string {
	var out []string
	for _, ds := range defs {
		for _, d := range ds {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}

// checkResult asserts a result carries exactly the wanted metrics, each
// finite and with its BENCHMARK.json unit, and no failed op.
func checkResult(t *testing.T, sp *spec, r result, want []string) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d, want a clean run", r.Correct, r.Attempted, r.Failed)
	}
	var got []string
	for name := range r.Metrics {
		got = append(got, name)
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("metrics are\n%v\nBENCHMARK.json names\n%v", got, want)
	}
	units := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), sp.EndToEnd...), sp.PerLayer...) {
		units[d.Name] = d.Unit
	}
	for name, v := range r.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s = %v", name, v.Value)
		}
		if v.Unit != units[name] {
			t.Errorf("%s has unit %q, BENCHMARK.json says %q", name, v.Unit, units[name])
		}
	}
}

// TestSmoke runs the whole suite, both passes, at smoke size: every
// workload and metric BENCHMARK.json names is emitted, and nothing else, so
// the JSON and the code cannot drift apart.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	rs := results(t)
	if len(rs) != len(sp.Workloads) || len(rs) != len(suite) {
		t.Fatalf("%d results for %d workloads in BENCHMARK.json and %d in the suite", len(rs), len(sp.Workloads), len(suite))
	}
	for i, r := range rs {
		t.Run(sp.Workloads[i].Name, func(t *testing.T) {
			checkResult(t, sp, r, names(sp.EndToEnd, sp.PerLayer))
			for _, d := range sp.EndToEnd {
				if r.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, r.Metrics[d.Name].Value)
				}
			}
		})
	}
}

// TestTraceFlag checks the split the driver relies on: -trace 0 prints the
// end-to-end metrics only, -trace 1 the per-layer metrics only.
func TestTraceFlag(t *testing.T) {
	sp, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	for flag, want := range map[string][]string{"0": names(sp.EndToEnd), "1": names(sp.PerLayer)} {
		rs := results(t, "--workload", "core-memory", "--seed", "7", "--seconds", "1", "--trace", flag)
		if len(rs) != 1 {
			t.Fatalf("-trace %s: %d result lines, want 1", flag, len(rs))
		}
		checkResult(t, sp, rs[0], want)
	}
}

// TestSelfTime pins the rule the per-layer numbers rest on: a span's self
// time is its duration minus what its children cover, overlaps counted once.
func TestSelfTime(t *testing.T) {
	tr := newTracer("t")
	tr.spans = []span{
		{ID: 1, Layer: "a", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Layer: "b", StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 1, Layer: "b", StartNS: 30, EndNS: 70}, // overlaps span 2
		{ID: 4, Parent: 3, Layer: "c", StartNS: 40, EndNS: 60},
	}
	self := tr.selfByLayer(func(span) bool { return true })
	if self["a"] != 40 || self["b"] != 60 || self["c"] != 20 {
		t.Errorf("self times a=%d b=%d c=%d, want 40 60 20", self["a"], self["b"], self["c"])
	}
}
