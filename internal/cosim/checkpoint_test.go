package cosim

import (
	"bytes"
	"reflect"
	"testing"

	"xt910/internal/asm"
	"xt910/internal/emu"
	"xt910/internal/mem"
	"xt910/isa"
)

// checkpointProg runs long enough to checkpoint mid-flight and touches
// memory, branches and output so the restored run has real state to get
// wrong.
const checkpointProg = `
_start:
    la x8, buf
    li x5, 0
    li x6, 40
    li x10, 0
loop:
    addi x5, x5, 1
    sd x5, 0(x8)
    ld x9, 0(x8)
    add x10, x10, x9
    xor x11, x10, x5
    sd x10, 8(x8)
    blt x5, x6, loop
    li a7, 93
    li a0, 0
    ecall
.align 6
buf:
    .dword 0, 0, 0, 0, 0, 0, 0, 0
`

func assembleCheckpointProg(t *testing.T) *asm.Program {
	t.Helper()
	prog, err := asm.Assemble(checkpointProg, asm.Options{Base: 0x1000, Compress: true})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return prog
}

// referenceRun executes the program on a fresh golden model to completion,
// exactly as a session's emulator would have.
func referenceRun(t *testing.T, prog *asm.Program) *emu.Machine {
	t.Helper()
	m := emu.New(mem.NewMemory())
	prog.LoadInto(m.Mem)
	m.PC = prog.Entry
	m.X[isa.SP] = stackBase
	for i := 0; !m.Halted; i++ {
		if err := m.Step(); err != nil {
			t.Fatalf("reference run: %v", err)
		}
		if i > 1_000_000 {
			t.Fatal("reference run did not halt")
		}
	}
	return m
}

// captureMidRun steps a session partway, then takes the first valid
// checkpoint, proving it lands strictly inside the program.
func captureMidRun(t *testing.T, s *Session) *Checkpoint {
	t.Helper()
	for s.Commits() < 20 && !s.Done() {
		s.Step()
	}
	for !s.Done() {
		cp, err := s.Checkpoint()
		if err == nil {
			if cp.Commits == 0 {
				t.Fatal("checkpoint captured before any commit")
			}
			return cp
		}
		s.Step()
	}
	t.Fatal("no valid checkpoint boundary before the program ended")
	return nil
}

func TestCheckpointResumeMatchesStraightRun(t *testing.T) {
	prog := assembleCheckpointProg(t)
	ref := referenceRun(t, prog)

	s := NewSession(prog, Options{})
	cp := captureMidRun(t, s)

	// The interrupted session itself must still finish clean — taking a
	// checkpoint is a pure observation.
	for !s.Done() {
		s.Step()
	}
	if r := s.Finish(); r.Diverged {
		t.Fatalf("session diverged after checkpoint:\n%s", r.Report)
	}
	if cp.Commits >= s.Commits() {
		t.Fatalf("checkpoint at commit %d is not mid-run (program has %d)", cp.Commits, s.Commits())
	}

	// Resume from the checkpoint and run the suffix to completion.
	m := cp.NewMachine()
	for i := 0; !m.Halted; i++ {
		if err := m.Step(); err != nil {
			t.Fatalf("resumed run: %v", err)
		}
		if i > 1_000_000 {
			t.Fatal("resumed run did not halt")
		}
	}

	if m.ExitCode != ref.ExitCode {
		t.Fatalf("exit code: resumed=%d reference=%d", m.ExitCode, ref.ExitCode)
	}
	if string(m.Output) != string(ref.Output) {
		t.Fatalf("output: resumed=%q reference=%q", m.Output, ref.Output)
	}
	if got, want := m.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("final architectural state differs:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(m.DumpCSRs(), ref.DumpCSRs()) {
		t.Fatalf("final CSR file differs: resumed=%v reference=%v", m.DumpCSRs(), ref.DumpCSRs())
	}
	if !reflect.DeepEqual(m.Mem.Snapshot(), ref.Mem.Snapshot()) {
		t.Fatal("final memory image differs")
	}
}

// TestPagedCheckpointResumes: a machine restored from a checkpoint taken under
// SV39 starts with an empty soft TLB and must walk its way back in — the
// resumed suffix ends exactly where the session's own golden model does.
// (Restoring used to leave the soft TLB a nil map, which the first walk after
// it wrote into.)
func TestPagedCheckpointResumes(t *testing.T) {
	s := NewSession(assembleCheckpointProg(t), Options{Modes: Modes{Paged: true}})
	cp := captureMidRun(t, s)
	if r := stepToEnd(s); r.Diverged {
		t.Fatalf("session diverged after checkpoint:\n%s", r.Report)
	}
	ref := s.Hart(0).Emu()

	m := cp.NewMachine()
	if err := m.Run(1_000_000); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !m.Halted || m.ExitCode != ref.ExitCode {
		t.Fatalf("resumed: halted=%v exit=%d, session's golden model exit=%d", m.Halted, m.ExitCode, ref.ExitCode)
	}
	if got, want := m.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("final architectural state differs:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(m.DumpCSRs(), ref.DumpCSRs()) {
		t.Fatalf("final CSR file differs: resumed=%v session=%v", m.DumpCSRs(), ref.DumpCSRs())
	}
	if !reflect.DeepEqual(m.Mem.Snapshot(), ref.Mem.Snapshot()) {
		t.Fatal("final memory image differs")
	}
}

func TestCheckpointJSONRoundTrip(t *testing.T) {
	prog := assembleCheckpointProg(t)
	s := NewSession(prog, Options{})
	cp := captureMidRun(t, s)

	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeCheckpoint(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(cp, got) {
		t.Fatal("checkpoint did not survive a JSON round trip")
	}

	// Determinism: re-encoding the decoded checkpoint is byte-identical.
	var buf2 bytes.Buffer
	if err := got.Encode(&buf2); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if err := cp.Encode(&buf); err != nil {
		t.Fatalf("encode again: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("checkpoint encoding is not deterministic")
	}

	// A checkpoint written while the architectural snapshot still carried
	// its always-null CSR map decodes to the same checkpoint.
	old := bytes.Replace(buf2.Bytes(), []byte(`"arch":{`), []byte(`"arch":{"CSR":null,`), 1)
	if bytes.Equal(old, buf2.Bytes()) {
		t.Fatal(`no "arch" object in the encoding`)
	}
	if got, err := DecodeCheckpoint(bytes.NewReader(old)); err != nil || !reflect.DeepEqual(cp, got) {
		t.Fatalf(`a checkpoint with "CSR": null did not decode to the same checkpoint (err %v)`, err)
	}
}

func TestCheckpointRejectsPerturbedState(t *testing.T) {
	prog := assembleCheckpointProg(t)
	s := NewSession(prog, Options{})
	if _, err := s.Checkpoint(); err != nil {
		t.Fatalf("clean initial state must checkpoint: %v", err)
	}
	// Corrupt the golden model behind the checker's back: the boundary
	// compare must refuse to certify the checkpoint.
	s.Hart(0).Emu().X[5] ^= 0xdeadbeef
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint certified a perturbed state")
	}
}

func TestCheckpointRejectsMultiHart(t *testing.T) {
	prog := assembleCheckpointProg(t)
	s := NewSession(prog, Options{Harts: 2})
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("multi-hart session must not checkpoint")
	}
}
