package prof

import (
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// Canned samples: two heap profiles whose diff has one obvious grower,
// the second sample of each led by a runtime frame, and a goroutine
// profile with one goroutine split over two records (as two pprof label
// sets would split it in the text form) and one pure-runtime stack.
var (
	heapA = []Sample{
		{Stack: []string{"repro/internal/kb.Build", "repro/internal/pipeline.Run"}, Value: 2, Bytes: 2048},
		{Stack: []string{"runtime.allocm", "repro/internal/quest.Serve"}, Value: 1, Bytes: 2048},
	}
	heapB = []Sample{
		{Stack: []string{"repro/internal/kb.Build", "repro/internal/pipeline.Run"}, Value: 3, Bytes: 71680},
		{Stack: []string{"runtime.allocm", "repro/internal/quest.Serve"}, Value: 1, Bytes: 2048},
	}
	goroutines = []Sample{
		{Stack: []string{"runtime.gopark", "repro/internal/repl.(*Replica).run", "runtime.goexit"}, Value: 3},
		{Stack: []string{"runtime.gopark", "repro/internal/repl.(*Replica).run", "runtime.goexit"}, Value: 2},
		{Stack: []string{"runtime.gopark", "runtime.goexit"}, Value: 2},
	}
)

// cannedProfiles hands out fixed samples per profile name, switching the
// heap between A and B across calls so deltas are non-trivial.
type cannedProfiles struct {
	mu    sync.Mutex
	heaps [][]Sample
	calls int
}

func (c *cannedProfiles) profile(name string) ([]Sample, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if name == "heap" {
		samples := c.heaps[min(c.calls, len(c.heaps)-1)]
		c.calls++
		return samples, nil
	}
	return goroutines, nil
}

// newTestSampler builds a sampler on canned profiles and a fake clock.
func newTestSampler(t *testing.T, mutate func(*Config)) (*Sampler, *obs.Registry) {
	t.Helper()
	canned := &cannedProfiles{heaps: [][]Sample{heapA, heapB}}
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
	sum := summarize(heapA, true)
	if sum.Total != 3 || sum.TotalBytes != 4096 {
		t.Fatalf("heap totals = %d objs / %d bytes, want 3 / 4096", sum.Total, sum.TotalBytes)
	}
	if len(sum.Top) != 2 {
		t.Fatalf("top frames = %d, want 2: %+v", len(sum.Top), sum.Top)
	}
	// Leaf attribution skips runtime frames: the second sample lands on
	// quest.Serve, not runtime.allocm. Equal bytes tie-break by objects.
	if sum.Top[0].Func != "repro/internal/kb.Build" || sum.Top[0].Bytes != 2048 {
		t.Fatalf("top[0] = %+v", sum.Top[0])
	}
	if sum.Top[1].Func != "repro/internal/quest.Serve" {
		t.Fatalf("top[1] = %+v", sum.Top[1])
	}
}

// TestSummarizeGoroutineProfileCountsAndLabels: records of one leaf, which
// the text form lists apart when their pprof labels differ, count as one
// frame, and a pure-runtime stack falls back to its innermost frame.
func TestSummarizeGoroutineProfileCountsAndLabels(t *testing.T) {
	sum := summarize(goroutines, false)
	if sum.Total != 7 {
		t.Fatalf("goroutine total = %d, want 7", sum.Total)
	}
	if sum.Top[0].Func != "repro/internal/repl.(*Replica).run" || sum.Top[0].Value != 5 {
		t.Fatalf("top[0] = %+v", sum.Top[0])
	}
	if sum.Top[1].Func != "runtime.gopark" || sum.Top[1].Value != 2 {
		t.Fatalf("top[1] = %+v", sum.Top[1])
	}
}

// TestLeafFuncFollowsTheTextForm: the attribution frame is the one the
// debug=1 text form leads to — leading runtime. and internal/runtime/
// frames and runtime.goexit hidden, then the first frame outside
// runtime. and runtime/.
func TestLeafFuncFollowsTheTextForm(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/kb.Build"}, "repro/internal/kb.Build"},
		{[]string{"internal/runtime/maps.newarray", "repro/internal/kb.Build"}, "repro/internal/kb.Build"},
		{[]string{"runtime.gopark", "runtime.goexit"}, "runtime.gopark"},
		{[]string{"runtime.gopark", "internal/runtime/syscall.x", "runtime.goexit"}, "internal/runtime/syscall.x"},
		{[]string{"runtime.x", "runtime/pprof.writeHeap", "main.main"}, "main.main"},
		{[]string{"runtime/pprof.writeHeap", "runtime.y"}, "runtime/pprof.writeHeap"},
		// After a frame that did not symbolize, runtime frames print.
		{[]string{"", "runtime.y", "main.main"}, "main.main"},
		{[]string{"", "runtime.y"}, "runtime.y"},
		// Once a frame shows, later internal/runtime/ frames print and lead.
		{[]string{"runtime/debug.Stack", "internal/runtime/maps.x"}, "internal/runtime/maps.x"},
		{[]string{"runtime.x", ""}, "(unknown)"},
		{[]string{"runtime.goexit"}, "(unknown)"},
		{nil, "(unknown)"},
	} {
		if got := leafFunc(c.stack); got != c.want {
			t.Errorf("leafFunc(%q) = %q, want %q", c.stack, got, c.want)
		}
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
// real heap and goroutine records summarize and the CPU window produces
// bytes.
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
