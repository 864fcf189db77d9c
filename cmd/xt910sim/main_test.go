package main

import (
	"bytes"
	"os"
	"path/filepath"
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
