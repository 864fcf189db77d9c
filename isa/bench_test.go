package isa_test

import (
	"testing"

	"xt910/internal/workloads"
	"xt910/isa"
)

// coremarkInsts returns the 32-bit words of CoreMark's uncompressed image
// that decode to an instruction, and their decodes.
func coremarkInsts(tb testing.TB) (words []uint32, insts []isa.Inst) {
	tb.Helper()
	p, err := workloads.CoreMark.Program(workloads.CoreMark.DefaultIters, false)
	if err != nil {
		tb.Fatal(err)
	}
	listing(p.Data, func(raw uint32, in isa.Inst) {
		if in.Op != isa.ILLEGAL && in.Size == 4 {
			words, insts = append(words, raw), append(insts, in)
		}
	})
	return words, insts
}

var (
	sinkInst isa.Inst
	sinkWord uint32
)

func decodeAll(words []uint32) {
	for _, w := range words {
		sinkInst = isa.Decode(w)
	}
}

func encodeAll(insts []isa.Inst) {
	for i := range insts {
		sinkWord, _ = isa.Encode(insts[i])
	}
}

// TestDecodeEncodeAllocFree: every fetched word goes through Decode and every
// generated instruction through Encode; neither may allocate.
func TestDecodeEncodeAllocFree(t *testing.T) {
	words, insts := coremarkInsts(t)
	if n := testing.AllocsPerRun(10, func() { decodeAll(words) }); n != 0 {
		t.Errorf("Decode allocates: %v allocs per %d words", n, len(words))
	}
	if n := testing.AllocsPerRun(10, func() { encodeAll(insts) }); n != 0 {
		t.Errorf("Encode allocates: %v allocs per %d instructions", n, len(insts))
	}
}

func BenchmarkDecode(b *testing.B) {
	words, _ := coremarkInsts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeAll(words)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(words)), "ns/inst")
}

func BenchmarkEncode(b *testing.B) {
	_, insts := coremarkInsts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeAll(insts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(insts)), "ns/inst")
}
