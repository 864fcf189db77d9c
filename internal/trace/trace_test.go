package trace

import (
	"bytes"
	"strings"
	"testing"

	"xt910/isa"
)

func addInst() isa.Inst {
	return isa.Inst{Op: isa.ADD, Rd: isa.X(1), Rs1: isa.X(2), Rs2: isa.X(3)}
}

// play drives one retired and one mispredict-squashed µop through a tracer,
// the fixture for the golden sink tests.
func play(t *Tracer) {
	t.Begin(1, 0x1000, addInst(), 33)
	t.StageAt(1, StageFetch, 30)
	t.StageAt(1, StagePredecode, 31)
	t.StageAt(1, StageRename, 33)
	t.StageAt(1, StageDispatch, 33)
	t.StageAt(1, StageIssue, 36)
	t.StageAt(1, StageExec, 36)
	t.StageAt(1, StageWriteback, 37)
	t.Retire(1, 40)

	t.Begin(2, 0x1004, addInst(), 34)
	t.StageAt(2, StageFetch, 31)
	t.StageAt(2, StagePredecode, 32)
	t.StageAt(2, StageRename, 34)
	t.StageAt(2, StageDispatch, 34)
	t.Squash(2, 35, SquashMispredict)
}

func TestKonataGolden(t *testing.T) {
	var buf bytes.Buffer
	k := NewKonataWriter(&buf)
	tr := New(Config{}, k)
	play(tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"Kanata\t0004",
		"I\t0\t1\t0",
		"L\t0\t0\t0x1000: add ra, sp, gp",
		"C=\t30", "S\t0\t0\tF",
		"C=\t31", "S\t0\t0\tPd",
		"C=\t33", "S\t0\t0\tRn",
		"C=\t33", "S\t0\t0\tDs",
		"C=\t36", "S\t0\t0\tIs",
		"C=\t36", "S\t0\t0\tEx",
		"C=\t37", "S\t0\t0\tWb",
		"C=\t40", "S\t0\t0\tCm",
		"C=\t41", "E\t0\t0\tCm",
		"R\t0\t0\t0",
		"I\t1\t2\t0",
		"L\t1\t0\t0x1004: add ra, sp, gp",
		"C=\t31", "S\t1\t0\tF",
		"C=\t32", "S\t1\t0\tPd",
		"C=\t34", "S\t1\t0\tRn",
		"C=\t34", "S\t1\t0\tDs",
		"C=\t36", "E\t1\t0\tDs",
		"R\t1\t1\t1",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("Konata output:\n%s\nwant:\n%s", got, want)
	}
	if k.Retired != 1 || k.Squashed != 1 {
		t.Errorf("counters: retired=%d squashed=%d, want 1/1", k.Retired, k.Squashed)
	}
	ks, err := ValidateKonata(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("golden output fails its own validator: %v", err)
	}
	if ks.Uops != 2 || ks.Retired != 1 || ks.Squashed != 1 {
		t.Errorf("validator stats = %+v", ks)
	}
}

func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONLWriter(&buf)
	tr := New(Config{}, j)
	play(tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"seq":1,"pc":"0x1000","asm":"add ra, sp, gp","retired":true,"end":40,"stages":{"F":30,"Pd":31,"Rn":33,"Ds":33,"Is":36,"Ex":36,"Wb":37,"Cm":40}}
{"seq":2,"pc":"0x1004","asm":"add ra, sp, gp","retired":false,"cause":"mispredict","end":35,"stages":{"F":31,"Pd":32,"Rn":34,"Ds":34}}
`
	if got := buf.String(); got != want {
		t.Errorf("JSONL output:\n%s\nwant:\n%s", got, want)
	}
}

func TestEmptyTraceStillValid(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{}, NewKonataWriter(&buf))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if ks, err := ValidateKonata(bytes.NewReader(buf.Bytes())); err != nil || ks.Uops != 0 {
		t.Fatalf("empty trace: stats=%+v err=%v", ks, err)
	}
}

func TestCycleWindow(t *testing.T) {
	var buf bytes.Buffer
	k := NewKonataWriter(&buf)
	tr := New(Config{StartCycle: 10, StopCycle: 20}, k)
	for i, now := range []uint64{5, 10, 19, 20, 25} {
		seq := uint64(i + 1)
		tr.Begin(seq, 0x1000, addInst(), now)
		tr.StageAt(seq, StageRename, now)
		tr.Retire(seq, now+4)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// only the µops renamed at cycles 10 and 19 fall inside [10, 20)
	if k.Retired != 2 {
		t.Errorf("windowed retire count = %d, want 2", k.Retired)
	}
}

func TestSampling(t *testing.T) {
	var buf bytes.Buffer
	k := NewKonataWriter(&buf)
	tr := New(Config{SampleEvery: 3}, k)
	for seq := uint64(1); seq <= 9; seq++ {
		tr.Begin(seq, 0x1000, addInst(), seq)
		tr.StageAt(seq, StageRename, seq)
		tr.Retire(seq, seq+4)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// keeps µops 1, 4, 7 of the 9 offered
	if k.Retired != 3 {
		t.Errorf("sampled retire count = %d, want 3", k.Retired)
	}
}

// TestBufferCapEviction: one µop more in flight than the buffer holds evicts
// the oldest.
func TestBufferCapEviction(t *testing.T) {
	tr := New(Config{})
	for seq := uint64(1); seq <= bufferCap+1; seq++ {
		tr.Begin(seq, 0x1000+4*seq, addInst(), seq)
	}
	if tr.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", tr.Dropped)
	}
	// events for the evicted µop are silent no-ops
	tr.StageAt(1, StageExec, 5)
	tr.Retire(1, 6)
	if tr.Dropped != 1 {
		t.Errorf("Dropped changed to %d on evicted-seq events", tr.Dropped)
	}
}

func TestFlightRecorderRing(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{KeepLast: 2}, NewJSONLWriter(&buf))
	for seq := uint64(1); seq <= 5; seq++ {
		tr.Begin(seq, 0x1000+4*seq, addInst(), seq)
		tr.StageAt(seq, StageRename, seq)
		tr.Retire(seq, seq+4)
	}
	if buf.Len() != 0 {
		t.Fatal("flight recorder streamed before Close")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("ring drained %d records, want 2:\n%s", len(lines), buf.String())
	}
	// oldest-first: µop 4 then µop 5
	if !strings.HasPrefix(lines[0], `{"seq":4,`) || !strings.HasPrefix(lines[1], `{"seq":5,`) {
		t.Errorf("ring order wrong:\n%s", buf.String())
	}
}

func TestValidateKonataErrors(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"empty", "", "empty"},
		{"bad header", "Kanata\t0003\n", "bad Kanata header"},
		{"unopened id", "Kanata\t0004\nS\t7\t0\tF\n", "unopened id 7"},
		{"never closed", "Kanata\t0004\nI\t0\t1\t0\n", "never closed"},
		{"bad retire type", "Kanata\t0004\nI\t0\t1\t0\nR\t0\t0\t2\n", "malformed"},
		{"unknown line", "Kanata\t0004\nQ\t0\n", "malformed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ValidateKonata(strings.NewReader(c.in))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("err = %v, want substring %q", err, c.wantErr)
			}
		})
	}
}

func TestCPIStack(t *testing.T) {
	var s CPIStack
	for i := 0; i < 6; i++ {
		s.Add(CycleRetiring, SubNone)
	}
	s.Add(CycleFrontend, SubFeICache)
	s.Add(CycleBadSpec, SubNone)
	s.Add(CycleBackendMem, SubMemDRAM)
	s.Add(CycleBackendCore, SubNone)
	if s.Total() != 10 {
		t.Fatalf("Total = %d, want 10", s.Total())
	}
	if err := s.Check(10); err != nil {
		t.Errorf("Check(10) = %v", err)
	}
	if err := s.Check(11); err == nil {
		t.Error("Check(11) accepted a lost cycle")
	}
	if f := s.Fraction(CycleRetiring); f != 0.6 {
		t.Errorf("Fraction(retiring) = %v, want 0.6", f)
	}
	if out := s.String(); !strings.Contains(out, "retiring 60.0%") {
		t.Errorf("String() = %q", out)
	}
	if out := s.String(); !strings.Contains(out, "(icache 10.0% itlb 0.0% redirect 0.0% other 0.0%)") {
		t.Errorf("String() = %q, want frontend sub-bracket", out)
	}
}

// TestCPIStackTree pins the two-level partition property: every refined
// parent must equal the sum of its children, and a missing or surplus
// sub-bucket cycle must fail Check even when the first level still sums.
func TestCPIStackTree(t *testing.T) {
	var s CPIStack
	s.AddN(CycleFrontend, SubFeICache, 3)
	s.AddN(CycleFrontend, SubFeITLB, 2)
	s.AddN(CycleFrontend, SubFeRedirect, 4)
	s.AddN(CycleFrontend, SubFeOther, 1)
	s.AddN(CycleBackendMem, SubMemL1, 5)
	s.AddN(CycleBackendMem, SubMemL2, 6)
	s.AddN(CycleBackendMem, SubMemDRAM, 7)
	s.AddN(CycleRetiring, SubNone, 12)
	if err := s.Check(40); err != nil {
		t.Fatalf("Check(40) = %v", err)
	}
	if got := s.SubTotal(CycleFrontend); got != 10 {
		t.Errorf("SubTotal(frontend) = %d, want 10", got)
	}
	if got := s.SubTotal(CycleBackendMem); got != 18 {
		t.Errorf("SubTotal(mem) = %d, want 18", got)
	}
	if got := s.SubTotal(CycleRetiring); got != 0 {
		t.Errorf("SubTotal(retiring) = %d, want 0 (unrefined)", got)
	}

	// a frontend cycle attributed without its sub-bucket breaks the tree
	bad := s
	bad.Add(CycleFrontend, SubNone)
	if err := bad.Check(41); err == nil {
		t.Error("Check accepted a frontend cycle with no sub-bucket")
	}
	// a sub-bucket cycle whose parent never saw it breaks the tree too
	bad2 := s
	bad2.Subs[SubMemL2]++
	if err := bad2.Check(40); err == nil {
		t.Error("Check accepted a surplus mem sub-bucket cycle")
	}
	// SubNone must never be used as a counter
	bad3 := s
	bad3.Subs[SubNone]++
	if err := bad3.Check(40); err == nil {
		t.Error("Check accepted cycles in the SubNone counter")
	}
}

func TestSubClassParents(t *testing.T) {
	for sub := SubFeICache; sub <= SubFeOther; sub++ {
		if sub.Parent() != CycleFrontend {
			t.Errorf("%s.Parent() = %v, want frontend", sub, sub.Parent())
		}
	}
	for sub := SubMemL1; sub <= SubMemDRAM; sub++ {
		if sub.Parent() != CycleBackendMem {
			t.Errorf("%s.Parent() = %v, want mem", sub, sub.Parent())
		}
	}
	if SubNone.Parent() != NumCycleClasses {
		t.Errorf("SubNone.Parent() = %v, want NumCycleClasses", SubNone.Parent())
	}
}
