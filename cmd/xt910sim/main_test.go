package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"xt910/internal/bench"
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

// TestUnknownConfigIsUsageError: a bad -config exits 2.
func TestUnknownConfigIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-config", "bogus", "loop.s"}, &out, &errb); rc != 2 {
		t.Errorf("-config bogus: exit %d, want 2", rc)
	}
}

// TestStreamWorkloadResolves: xt910sim names workloads as xtbench does, so
// the dedicated-configuration kernels (STREAM here) run like any other and
// -list prints them.
func TestStreamWorkloadResolves(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-iters", "1", "-selfcheck", "stream"}, &out, &errb); rc != 0 {
		t.Fatalf("xt910sim stream: exit %d\nstderr: %s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "selfcheck: ok") {
		t.Errorf("stdout: %q", out.String())
	}

	out.Reset()
	if rc := run([]string{"-list"}, &out, &errb); rc != 0 {
		t.Fatalf("xt910sim -list: exit %d", rc)
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

// TestExitStatus: the exit status is hart 0's halt, not the program's exit
// code (a workload's checksum, printed instead); a tracer flag with -emu is
// a usage error.
func TestExitStatus(t *testing.T) {
	src := filepath.Join(t.TempDir(), "exit7.s")
	if err := os.WriteFile(src, []byte("_start:\n    li a0, 7\n    li a7, 93\n    ecall\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args   []string
		rc     int
		out    string
		stderr string
	}{
		{[]string{src}, 0, "[hart 0] halted=true exit=7 ", ""},
		{[]string{"-emu", src}, 0, "[emu] halted=true exit=7 ", ""},
		{[]string{"-max-cycles", "2000", "stream"}, 1, "[hart 0] halted=false ", "within 2000 cycles"},
		{[]string{"-cores", "2", "-max-cycles", "2000", "stream"}, 1, "[hart 1] halted=false ", ""},
		{[]string{"-emu", "-max-cycles", "2000", "stream"}, 1, "[emu] halted=false ", "within 2000 steps"},
		{[]string{"-emu", "-cpipc", "3", src}, 2, "", ""},
		{[]string{"-emu", "-selfcheck", src}, 2, "", ""},
	} {
		var out, errb bytes.Buffer
		rc := run(c.args, &out, &errb)
		if rc != c.rc || !strings.Contains(out.String(), c.out) || !strings.Contains(errb.String(), c.stderr) {
			t.Errorf("%v: exit %d, want %d; stdout %q lacks %q or stderr lacks %q\nstderr: %s",
				c.args, rc, c.rc, out.String(), c.out, c.stderr, errb.String())
		}
	}
}

// TestTracerOnlyWhenAsked: a plain run carries no tracer, so it prints no
// CPI stack; -stats attaches one and prints hart 0's. A workload and the .s
// file of its source run the same cycles either way.
func TestTracerOnlyWhenAsked(t *testing.T) {
	w, _ := bench.FindWorkload("stream")
	src := filepath.Join(t.TempDir(), "stream.s")
	if err := os.WriteFile(src, []byte(w.Gen(1)), 0o644); err != nil {
		t.Fatal(err)
	}
	hart0 := func(args ...string) (line string, traced bool) {
		var out, errb bytes.Buffer
		if rc := run(args, &out, &errb); rc != 0 {
			t.Fatalf("%v: exit %d\nstderr: %s", args, rc, errb.String())
		}
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "[hart 0]") {
				line = l
			}
			traced = traced || strings.HasPrefix(l, "cpi-stack: ")
		}
		return line, traced
	}
	plain, traced := hart0(src)
	if traced {
		t.Error("a plain run printed a CPI stack")
	}
	if stats, traced := hart0("-stats", src); !traced || stats != plain {
		t.Errorf("-stats: CPI stack %v, hart 0 %q; want one and %q", traced, stats, plain)
	}
	if named, _ := hart0("-iters", "1", "stream"); named != plain {
		t.Errorf("stream by name: %q; from its source: %q", named, plain)
	}
}
