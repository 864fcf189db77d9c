package isa_test

import (
	"testing"

	"xt910/internal/workloads"
	"xt910/isa"
)

// coremarkInsts returns the instructions of CoreMark's image, with RVC or
// without, that are size bytes long and decode to an operation: their raw
// words or parcels, and their decodes.
func coremarkInsts(tb testing.TB, compress bool, size uint8) (words []uint32, insts []isa.Inst) {
	tb.Helper()
	p, err := workloads.CoreMark.Program(workloads.CoreMark.DefaultIters, compress)
	if err != nil {
		tb.Fatal(err)
	}
	listing(p.Data, func(raw uint32, in isa.Inst) {
		if in.Op != isa.ILLEGAL && in.Size == size {
			words, insts = append(words, raw), append(insts, in)
		}
	})
	return words, insts
}

var (
	sinkInst   isa.Inst
	sinkWord   uint32
	sinkParcel uint16
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

func decode16All(parcels []uint32) {
	for _, w := range parcels {
		sinkInst = isa.Decode16(uint16(w))
	}
}

func compressAll(insts []isa.Inst) {
	for i := range insts {
		sinkParcel, _ = isa.Compress(insts[i])
	}
}

// TestDecodeEncodeAllocFree: every fetched word or parcel goes through Decode
// or Decode16, and every assembled instruction through Compress and perhaps
// Encode; none may allocate.
func TestDecodeEncodeAllocFree(t *testing.T) {
	words, insts := coremarkInsts(t, false, 4)
	parcels, expansions := coremarkInsts(t, true, 2)
	for _, c := range []struct {
		name string
		n    int
		run  func()
	}{
		{"Decode", len(words), func() { decodeAll(words) }},
		{"Encode", len(insts), func() { encodeAll(insts) }},
		{"Decode16", len(parcels), func() { decode16All(parcels) }},
		{"Compress", len(expansions), func() { compressAll(expansions) }},
	} {
		if c.n == 0 {
			t.Errorf("%s: CoreMark gives it nothing to do", c.name)
		}
		if n := testing.AllocsPerRun(10, c.run); n != 0 {
			t.Errorf("%s allocates: %v allocs per %d instructions", c.name, n, c.n)
		}
	}
}

// BenchmarkDecode times the decoders over CoreMark: Decode over the 32-bit
// words of its uncompressed image, Decode16 over the parcels of its RVC one.
func BenchmarkDecode(b *testing.B) {
	words, _ := coremarkInsts(b, false, 4)
	parcels, _ := coremarkInsts(b, true, 2)
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			decodeAll(words)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(words)), "ns/inst")
	})
	b.Run("Decode16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			decode16All(parcels)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(parcels)), "ns/parcel")
	})
}

// BenchmarkEncode times the encoders over the same instructions: Encode over
// the uncompressed image's, Compress over the expansions of the RVC image's
// parcels.
func BenchmarkEncode(b *testing.B) {
	_, insts := coremarkInsts(b, false, 4)
	_, expansions := coremarkInsts(b, true, 2)
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encodeAll(insts)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(insts)), "ns/inst")
	})
	b.Run("Compress", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			compressAll(expansions)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(expansions)), "ns/parcel")
	})
}
