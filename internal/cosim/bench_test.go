package cosim

import (
	"testing"

	"xt910/internal/workloads"
)

// BenchmarkLockstepCommit times the checked commit: Session.Step over
// coremark at its paper size until the core halts, core and golden model and
// checker together. ns/commit is the number to watch; with -benchmem the
// allocations are a whole session's, construction included.
func BenchmarkLockstepCommit(b *testing.B) {
	p, err := workloads.CoreMark.Program(workloads.CoreMark.DefaultIters, true)
	if err != nil {
		b.Fatal(err)
	}
	var commits uint64
	for i := 0; i < b.N; i++ {
		s := NewSession(p, Options{MaxCycles: 1 << 32})
		for !s.Done() {
			s.Step()
		}
		if r := s.Finish(); r.Diverged {
			b.Fatalf("diverged:\n%s", r.Report)
		}
		commits += s.Commits()
		s.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(commits), "ns/commit")
}

// BenchmarkFuzzProgram is what a fuzz seed costs before it runs: seed to
// *asm.Program through the generator and the assembler's back end, one
// program per mode (asm.BenchmarkAssembleFuzz times the text front end on the
// same programs). ns/seed is the number to watch; -benchmem gives the objects.
func BenchmarkFuzzProgram(b *testing.B) {
	var opts []Options
	for _, modes := range genModes {
		m, err := ParseModes(modes)
		if err != nil {
			b.Fatal(err)
		}
		opts = append(opts, Options{Modes: m})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range opts {
			if _, _, err := GenerateProgram(7, 0, o); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(opts)), "ns/seed")
}
