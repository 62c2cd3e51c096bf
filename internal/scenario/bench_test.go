package scenario

import (
	"testing"
	"unsafe"

	"repro/internal/workload"
)

// The cached-vs-uncached pair: BenchmarkRunStatsUncached is the cost of
// one full simulation; BenchmarkRunStatsWarm is the cost of serving the
// same spec from the in-memory store (digest + map lookup + stats
// clone); BenchmarkRunStatsWarmDisk adds a fresh store per iteration so
// every request pays the blob read. BENCH_PR4.json tracks the spread.

func BenchmarkRunStatsUncached(b *testing.B) {
	spec := baselineSpec(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var s *Store
		if _, err := s.RunStats(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunStatsWarm(b *testing.B) {
	s := newTestStore(b, "")
	spec := baselineSpec(b)
	if _, err := s.RunStats(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunStats(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunStatsWarmDisk(b *testing.B) {
	dir := b.TempDir()
	seed := newTestStore(b, dir)
	spec := baselineSpec(b)
	if _, err := seed.RunStats(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newTestStore(b, dir)
		if _, err := s.RunStats(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDigest is the repeat-digest cost of one spec: the config
// encoding plus a progDigests memo hit. It never encodes the program;
// BenchmarkProgramDigest does.
func BenchmarkDigest(b *testing.B) {
	spec := baselineSpec(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = spec.Digest()
	}
}

// BenchmarkProgramDigest encodes and hashes one large program per
// iteration, bypassing the progDigests memo: the cost every distinct
// program pays once per process. The program is the baseline of
// loadgen's checkpoint-share heap workload at its default seed (88,876
// instructions, 2,096 init words); SetBytes counts the in-memory
// Instruction and MemInit bytes, so MB/s compares across encodings.
func BenchmarkProgramDigest(b *testing.B) {
	w, err := workload.Heap(workload.HeapConfig{
		Operations:    600,
		FillerPerCall: 40,
		Prefill:       512,
		Seed:          7,
		WarmupFiller:  30000,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := w.Baseline
	b.SetBytes(int64(len(p.Code))*int64(unsafe.Sizeof(p.Code[0])) +
		int64(len(p.Init))*int64(unsafe.Sizeof(p.Init[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDigest = programDigest(p)
	}
}

var sinkDigest Digest
