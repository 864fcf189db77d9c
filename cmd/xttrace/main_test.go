package main

import (
	"bytes"
	"strings"
	"testing"

	"xt910/internal/bench"
)

// TestStreamWorkloadResolves: xttrace names workloads as xtbench does, so the
// dedicated-configuration kernels (STREAM here) trace like any other and
// -list prints them.
func TestStreamWorkloadResolves(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-iters", "1", "-selfcheck", "stream"}, &out, &errb); rc != 0 {
		t.Fatalf("xttrace stream: exit %d\nstderr: %s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "selfcheck: ok") {
		t.Errorf("stdout: %q", out.String())
	}

	out.Reset()
	if rc := run([]string{"-list"}, &out, &errb); rc != 0 {
		t.Fatalf("xttrace -list: exit %d", rc)
	}
	var want []string
	for _, w := range bench.Workloads() {
		want = append(want, w.Name)
	}
	if got := strings.Fields(out.String()); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-list printed %v, want %v", got, want)
	}
}

// TestUnknownNamesAreUsageErrors: a bad -config is a usage error (exit 2),
// a bad workload name a run failure (exit 1).
func TestUnknownNamesAreUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-config", "bogus", "stream"}, &out, &errb); rc != 2 {
		t.Errorf("-config bogus: exit %d, want 2", rc)
	}
	if rc := run([]string{"no-such-kernel"}, &out, &errb); rc != 1 {
		t.Errorf("unknown workload: exit %d, want 1", rc)
	}
}
