package prof

import "testing"

// BenchmarkFreezeDisabled is the flight-capture path with profiling off
// (nil *Sampler): the cost every bundle capture pays when no sampler is
// wired. Must stay 0 allocs/op.
func BenchmarkFreezeDisabled(b *testing.B) {
	var s *Sampler
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := s.Freeze(true); c != nil {
			b.Fatal("nil sampler froze a capture")
		}
	}
}

// BenchmarkRingDisabled is the debug-read path with profiling off — a
// nil check only. Must stay 0 allocs/op.
func BenchmarkRingDisabled(b *testing.B) {
	var s *Sampler
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r := s.Ring(); r != nil {
			b.Fatal("nil sampler returned a ring")
		}
	}
}

// BenchmarkSampleNowDisabled is the sampling path with profiling off.
// Must stay 0 allocs/op.
func BenchmarkSampleNowDisabled(b *testing.B) {
	var s *Sampler
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if snap := s.SampleNow(); snap != nil {
			b.Fatal("nil sampler produced a snapshot")
		}
	}
}

// BenchmarkSummarizeHeapProfile measures the summarizer on the canned
// heap samples — the per-snapshot reduction cost, independent of what the
// process happens to have allocated.
func BenchmarkSummarizeHeapProfile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sum := summarize(heapA, true); sum.Total == 0 {
			b.Fatal("empty summary")
		}
	}
}

// BenchmarkHeapDelta measures the consecutive-snapshot diff.
func BenchmarkHeapDelta(b *testing.B) {
	prev := summarize(heapA, true)
	now := summarize(heapB, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if d := heapDelta(&prev, &now); len(d) == 0 {
			b.Fatal("empty delta")
		}
	}
}
