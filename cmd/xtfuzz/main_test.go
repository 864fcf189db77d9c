package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCleanSweep(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-n", "5", "-seed", "1", "-jobs", "2"}, &out, &errb); rc != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", rc, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "5 seeds  0 diverged") {
		t.Fatalf("unexpected summary: %s", errb.String())
	}
	// the host clock's counters go to stderr, and under -json never to stdout
	var stepped, elided uint64
	i := strings.Index(errb.String(), "cycles_stepped")
	if _, err := fmt.Sscanf(errb.String()[max(i, 0):], "cycles_stepped %d cycles_elided %d", &stepped, &elided); err != nil || elided <= stepped {
		t.Fatalf("want a clock summary with most cycles elided (%v): %s", err, errb.String())
	}
	out.Reset()
	if rc := run([]string{"-json", "-n", "5", "-seed", "1"}, &out, &errb); rc != 0 || strings.Contains(out.String(), "elided") ||
		strings.Count(out.String(), "\n") != 5 {
		t.Fatalf("-json: exit %d, stdout %s", rc, out.String())
	}
}

func TestRepro(t *testing.T) {
	p := filepath.Join(t.TempDir(), "case.s")
	src := "_start:\n    li a0, 0\n    li a7, 93\n    ecall\n"
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if rc := run([]string{"-repro", p}, &out, &errb); rc != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "no divergence") {
		t.Fatalf("unexpected output: %s", out.String())
	}
}

func TestHartsModeConflict(t *testing.T) {
	// -modes paged alone is legal, but -harts 2 implies SMP and paged+smp is
	// not; no cluster has three cores; and the -paged/-irq aliases of -modes
	// are long gone. Each must be a usage error naming the rule or the flag,
	// not a silent run.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-modes", "paged", "-harts", "2", "-n", "1"}, "paged"},
		{[]string{"-modes", "smp", "-harts", "3", "-n", "1"}, "Table I"},
		{[]string{"-modes", "irq", "-paged", "-n", "1"}, "-paged"},
	} {
		var out, errb bytes.Buffer
		if rc := run(tc.args, &out, &errb); rc != 2 {
			t.Fatalf("%v: exit = %d, want 2\nstderr: %s", tc.args, rc, errb.String())
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Fatalf("%v: error should name %q: %s", tc.args, tc.want, errb.String())
		}
	}
}

func TestReproMissingFile(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-repro", "/nonexistent/case.s"}, &out, &errb); rc != 2 {
		t.Fatalf("exit = %d, want 2", rc)
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pb"), filepath.Join(dir, "mem.pb")
	var out, errb bytes.Buffer
	if rc := run([]string{"-n", "3", "-jobs", "1", "-cpuprofile", cpu, "-memprofile", mem}, &out, &errb); rc != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", rc, errb.String())
	}
	for _, f := range []string{cpu, mem} {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written or empty (err=%v)", f, err)
		}
	}
}
