package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const loopProgram = `
_start:
    li   t0, 2000
    li   a0, 0
loop:
    addi a0, a0, 3
    addi t0, t0, -1
    bnez t0, loop
    andi a0, a0, 0
    li   a7, 93
    ecall
`

// TestProfileFlags checks -cpuprofile/-memprofile write non-empty profiles
// around a pipeline run, and that the run itself still reports.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "loop.s")
	if err := os.WriteFile(src, []byte(loopProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	cpu, mem := filepath.Join(dir, "cpu.pb"), filepath.Join(dir, "mem.pb")
	var out, errb bytes.Buffer
	if rc := run([]string{"-cpuprofile", cpu, "-memprofile", mem, src}, &out, &errb); rc != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "[hart 0] halted=true exit=0") {
		t.Errorf("stdout: %q", out.String())
	}
	for _, f := range []string{cpu, mem} {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written or empty (err=%v)", f, err)
		}
	}

	if rc := run([]string{"-cpuprofile", filepath.Join(dir, "missing", "cpu.pb"), src}, &out, &errb); rc != 2 {
		t.Errorf("unwritable -cpuprofile: exit = %d, want 2", rc)
	}
}

// traceLines keeps the instruction lines of a -trace run ("    1000: addi
// ..."), dropping the program output and the closing summary.
func traceLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		pc, _, ok := strings.Cut(l, ": ")
		if _, err := strconv.ParseUint(strings.TrimSpace(pc), 16, 64); ok && err == nil {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestTraceMatchesEmulator: -trace prints the pipeline's commits, -emu -trace
// the golden model's instructions; on one program they are the same lines.
func TestTraceMatchesEmulator(t *testing.T) {
	src := filepath.Join(t.TempDir(), "loop.s")
	if err := os.WriteFile(src, []byte(loopProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	trace := func(args ...string) []string {
		var out, errb bytes.Buffer
		if rc := run(append(args, src), &out, &errb); rc != 0 {
			t.Fatalf("%v: exit %d\nstderr: %s", args, rc, errb.String())
		}
		return traceLines(out.String())
	}
	core, emu := trace("-trace"), trace("-emu", "-trace")
	if len(core) != 6005 { // 2000 iterations of three, five set-up and exit
		t.Fatalf("-trace printed %d instruction lines, want 6005", len(core))
	}
	if strings.Join(core, "\n") != strings.Join(emu, "\n") {
		for i := range core {
			if i >= len(emu) || core[i] != emu[i] {
				t.Fatalf("line %d: -trace %q, -emu -trace %q", i, core[i], emu[min(i, len(emu)-1)])
			}
		}
		t.Fatalf("-emu -trace printed %d lines, -trace %d", len(emu), len(core))
	}
}

// TestUnknownConfigIsUsageError: a bad -config exits 2, as in xttrace.
func TestUnknownConfigIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-config", "bogus", "loop.s"}, &out, &errb); rc != 2 {
		t.Errorf("-config bogus: exit %d, want 2", rc)
	}
}
