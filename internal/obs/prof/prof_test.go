package prof

import (
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// Canned debug=1 texts exercising every quirk of the grammar: the
// header line, heap's four-value samples, the MemStats tail, goroutine
// label lines, and the mutex preamble.
const heapTextA = `heap profile: 3: 4096 [10: 20480] @ heap/1048576
2: 2048 [4: 8192] @ 0x4a2b10 0x4a0f22 0x4632c1
#	0x4a2b0f	repro/internal/kb.Build+0x2ef	/root/repo/internal/kb/kb.go:120
#	0x4a0f21	repro/internal/pipeline.Run+0x101	/root/repo/internal/pipeline/run.go:55
1: 2048 [6: 12288] @ 0x52aa10 0x4632c1
#	0x52aa0f	runtime.allocm+0x10f	/usr/local/go/src/runtime/proc.go:1932
#	0x4632c0	repro/internal/quest.Serve+0x40	/root/repo/internal/quest/serve.go:10

# runtime.MemStats
# Alloc = 2148304
# Sys = 12624143
`

const heapTextB = `heap profile: 4: 73728 [12: 94208] @ heap/1048576
3: 71680 [5: 81920] @ 0x4a2b10 0x4a0f22 0x4632c1
#	0x4a2b0f	repro/internal/kb.Build+0x2ef	/root/repo/internal/kb/kb.go:120
#	0x4a0f21	repro/internal/pipeline.Run+0x101	/root/repo/internal/pipeline/run.go:55
1: 2048 [7: 12288] @ 0x52aa10 0x4632c1
#	0x52aa0f	runtime.allocm+0x10f	/usr/local/go/src/runtime/proc.go:1932
#	0x4632c0	repro/internal/quest.Serve+0x40	/root/repo/internal/quest/serve.go:10
`

const goroutineText = `goroutine profile: total 7
5 @ 0x4632c1 0x462f18
# labels: {"replica":"r0", "role":"apply"}
#	0x4632c0	repro/internal/repl.(*Replica).run+0x40	/root/repo/internal/repl/replica.go:273
2 @ 0x46f2a8
#	0x46f2a7	runtime.gopark+0x107	/usr/local/go/src/runtime/proc.go:381
`

const mutexText = `--- mutex:
cycles/second=1000000000
sampling period=1
18718 1 @ 0x46df05 0x46f2a8
#	0x46df04	sync.(*Mutex).Unlock+0x64	/usr/local/go/src/sync/mutex.go:223
#	0x46f2a7	repro/internal/obs.(*Registry).WriteProm+0x87	/root/repo/internal/obs/metrics.go:357
`

// cannedProfiles hands out one fixed text per profile name, switching
// the heap between A and B across calls so deltas are non-trivial.
type cannedProfiles struct {
	mu    sync.Mutex
	heaps []string
	calls int
}

func (c *cannedProfiles) profile(name string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch name {
	case "heap":
		text := c.heaps[min(c.calls, len(c.heaps)-1)]
		c.calls++
		return []byte(text), nil
	case "goroutine":
		return []byte(goroutineText), nil
	case "mutex":
		return []byte(mutexText), nil
	default: // block
		return []byte("--- contention:\ncycles/second=1000000000\n"), nil
	}
}

// newTestSampler builds a sampler on canned profiles and a fake clock.
func newTestSampler(t *testing.T, mutate func(*Config)) (*Sampler, *obs.Registry) {
	t.Helper()
	canned := &cannedProfiles{heaps: []string{heapTextA, heapTextB}}
	now := time.Unix(1700000000, 0)
	reg := obs.NewRegistry()
	cfg := Config{
		Ring:       3,
		WindowSize: 50 * time.Millisecond,
		Clock:      func() time.Time { now = now.Add(time.Second); return now },
		Registry:   reg,
		Logger:     obs.NewLogger(io.Discard, obs.LevelError),
		CaptureCPU: func(time.Duration) ([]byte, error) { return []byte("cpu-pprof-gz"), nil },
		Profile:    canned.profile,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s, reg
}

func TestSummarizeHeapProfile(t *testing.T) {
	sum := SummarizeDebugProfile("heap", heapTextA, 10)
	if sum.Total != 3 || sum.TotalBytes != 4096 {
		t.Fatalf("heap totals = %d objs / %d bytes, want 3 / 4096", sum.Total, sum.TotalBytes)
	}
	if len(sum.Top) != 2 {
		t.Fatalf("top frames = %d, want 2: %+v", len(sum.Top), sum.Top)
	}
	// Leaf attribution skips runtime frames: the second sample lands on
	// quest.Serve, not runtime.allocm. Equal bytes tie-break by name.
	if sum.Top[0].Func != "repro/internal/kb.Build" || sum.Top[0].Bytes != 2048 {
		t.Fatalf("top[0] = %+v", sum.Top[0])
	}
	if sum.Top[1].Func != "repro/internal/quest.Serve" {
		t.Fatalf("top[1] = %+v", sum.Top[1])
	}
}

func TestSummarizeGoroutineProfileCountsAndLabels(t *testing.T) {
	sum := SummarizeDebugProfile("goroutine", goroutineText, 10)
	if sum.Total != 7 {
		t.Fatalf("goroutine total = %d, want 7", sum.Total)
	}
	if sum.Top[0].Func != "repro/internal/repl.(*Replica).run" || sum.Top[0].Value != 5 {
		t.Fatalf("top[0] = %+v", sum.Top[0])
	}
	// The pure-runtime stack falls back to its true leaf.
	if sum.Top[1].Func != "runtime.gopark" || sum.Top[1].Value != 2 {
		t.Fatalf("top[1] = %+v", sum.Top[1])
	}
}

func TestSummarizeMutexProfileSkipsPreamble(t *testing.T) {
	sum := SummarizeDebugProfile("mutex", mutexText, 10)
	if sum.Total != 18718 {
		t.Fatalf("mutex total = %d, want 18718 (cycles)", sum.Total)
	}
	if sum.Top[0].Func != "sync.(*Mutex).Unlock" {
		t.Fatalf("top[0] = %+v", sum.Top[0])
	}
}

func TestSampleNowComputesHeapDeltaAndBoundsRing(t *testing.T) {
	s, reg := newTestSampler(t, nil)
	first := s.SampleNow()
	if len(first.HeapDelta) != 0 {
		t.Fatalf("first snapshot has a heap delta: %+v", first.HeapDelta)
	}
	if string(first.CPUPprof) != "cpu-pprof-gz" {
		t.Fatalf("cpu profile not captured: %q", first.CPUPprof)
	}
	second := s.SampleNow()
	if len(second.HeapDelta) == 0 {
		t.Fatalf("second snapshot has no heap delta")
	}
	// kb.Build grew 2048 -> 71680: the biggest mover comes first.
	d := second.HeapDelta[0]
	if d.Func != "repro/internal/kb.Build" || d.DeltaBytes != 71680-2048 || d.DeltaValue != 1 {
		t.Fatalf("heap delta[0] = %+v", d)
	}
	if d.NowBytes != 71680 {
		t.Fatalf("heap delta now bytes = %d, want 71680", d.NowBytes)
	}

	// Ring is bounded at 3: five samples retain the newest three.
	s.SampleNow()
	s.SampleNow()
	s.SampleNow()
	ring := s.Ring()
	if len(ring) != 3 {
		t.Fatalf("ring length = %d, want 3", len(ring))
	}
	if !ring[0].Time.Before(ring[2].Time) {
		t.Fatalf("ring not oldest-first: %v .. %v", ring[0].Time, ring[2].Time)
	}
	if got := reg.Counter(MetricCapturesTotal).Value(); got != 5 {
		t.Fatalf("prof_captures_total = %d, want 5", got)
	}
}

func TestFreezeAddsBreachCPUOnlyWhenAsked(t *testing.T) {
	s, _ := newTestSampler(t, nil)
	s.SampleNow()
	plain := s.Freeze(false)
	if plain == nil || len(plain.Ring) != 1 || plain.BreachCPU != nil {
		t.Fatalf("plain freeze = %+v", plain)
	}
	breach := s.Freeze(true)
	if string(breach.BreachCPU) != "cpu-pprof-gz" {
		t.Fatalf("breach freeze missing CPU capture: %+v", breach)
	}
}

func TestNilSamplerIsNoOp(t *testing.T) {
	var s *Sampler
	if s.SampleNow() != nil || s.Ring() != nil || s.Freeze(true) != nil {
		t.Fatalf("nil sampler produced data")
	}
	s.Start()
	s.Close()
}

// TestRealRuntimeProfiles exercises the non-injected capture path once:
// real heap/goroutine/mutex/block profiles parse and the CPU window
// produces bytes.
func TestRealRuntimeProfiles(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{
		Ring:       2,
		WindowSize: 20 * time.Millisecond,
		Registry:   reg,
		Logger:     obs.NewLogger(io.Discard, obs.LevelError),
	})
	defer s.Close()
	snap := s.SampleNow()
	if snap == nil {
		t.Fatal("SampleNow returned nil")
	}
	if snap.Heap.Total <= 0 || snap.Heap.TotalBytes <= 0 {
		t.Fatalf("real heap summary empty: %+v", snap.Heap)
	}
	if snap.Goroutines <= 0 {
		t.Fatalf("real goroutine count = %d", snap.Goroutines)
	}
	if len(snap.CPUPprof) == 0 {
		t.Fatalf("real CPU window produced no bytes")
	}
}
