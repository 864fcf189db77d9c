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
