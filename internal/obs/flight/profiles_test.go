package flight

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/prof"
)

// Two canned heap profiles whose diff is a single obvious grower, so
// the bundle's heap delta is deterministic.
var (
	profHeapA      = []prof.Sample{{Stack: []string{"repro/internal/kb.Build"}, Value: 1, Bytes: 4096}}
	profHeapB      = []prof.Sample{{Stack: []string{"repro/internal/kb.Build"}, Value: 3, Bytes: 147456}}
	profGoroutines = []prof.Sample{{Stack: []string{"repro/internal/quest.Serve"}, Value: 4}}
)

// newTestSampler builds a profiler on canned captures: the CPU bytes
// name which call produced them, so the test can tell the periodic
// window from the fresh breach-window capture.
func newTestSampler(t *testing.T) *prof.Sampler {
	t.Helper()
	heaps := [][]prof.Sample{profHeapA, profHeapB}
	calls := 0
	cpuCalls := 0
	s := prof.New(prof.Config{
		Ring:     4,
		Registry: obs.NewRegistry(),
		Logger:   obs.NewLogger(io.Discard, obs.LevelError),
		CaptureCPU: func(time.Duration) ([]byte, error) {
			cpuCalls++
			if cpuCalls > 2 {
				return []byte("breach-window-cpu"), nil
			}
			return []byte("periodic-cpu"), nil
		},
		Profile: func(name string) ([]prof.Sample, error) {
			if name == "heap" {
				samples := heaps[min(calls, len(heaps)-1)]
				calls++
				return samples, nil
			}
			return profGoroutines, nil
		},
	})
	t.Cleanup(s.Close)
	return s
}

// TestSLOBreachBundleCarriesProfiles is the acceptance test for the
// profiler/flight coupling: a deterministic SLO breach freezes the
// profile ring — with heap deltas — plus a fresh CPU capture of the
// breach window into the bundle, the bundle round-trips through both
// serializations, and the incident report renders the profile.
func TestSLOBreachBundleCarriesProfiles(t *testing.T) {
	sampler := newTestSampler(t)
	r, clock, reg, dir := newTestRecorder(t, func(c *Config) {
		c.SLOTarget = 100 * time.Millisecond
		c.SLOWindow = 10 * time.Second
		c.SLOBreaches = 1
		c.SLOMinSamples = 1
		c.Profiles = sampler
	})
	h := watchLatency(r, reg)

	// Two periodic samples so the newest snapshot carries a heap delta.
	sampler.SampleNow()
	sampler.SampleNow()

	// One over-budget window fires the breach.
	r.Tick(clock.Now())
	observe(h, 20, 500*time.Millisecond)
	r.Tick(clock.Advance(10 * time.Second))

	bundles := listBundles(t, dir)
	if len(bundles) != 1 || !strings.HasSuffix(bundles[0], "-slo_breach.json") {
		t.Fatalf("bundles = %v, want one slo_breach", bundles)
	}
	b, err := ReadBundle(filepath.Join(dir, bundles[0]))
	if err != nil {
		t.Fatal(err)
	}
	pr := b.Profiles
	if pr == nil || len(pr.Ring) != 2 {
		t.Fatalf("bundle profiles = %+v, want a 2-snapshot ring", pr)
	}
	if string(pr.BreachCPU) != "breach-window-cpu" {
		t.Fatalf("breach CPU = %q, want the fresh breach-window capture", pr.BreachCPU)
	}
	newest := pr.Ring[len(pr.Ring)-1]
	if string(newest.CPUPprof) != "periodic-cpu" {
		t.Fatalf("ring CPU = %q, want the periodic capture", newest.CPUPprof)
	}
	if len(newest.HeapDelta) == 0 {
		t.Fatalf("newest snapshot has no heap delta")
	}
	if d := newest.HeapDelta[0]; d.Func != "repro/internal/kb.Build" || d.DeltaBytes != 147456-4096 {
		t.Fatalf("heap delta[0] = %+v", d)
	}

	// The same section survives the single-JSON form.
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(t.TempDir(), "bundle.json")
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	b2, err := ReadBundle(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Profiles == nil || string(b2.Profiles.BreachCPU) != "breach-window-cpu" {
		t.Fatalf("JSON round-trip lost the profiles section: %+v", b2.Profiles)
	}

	// The incident report renders the frozen capture.
	var report bytes.Buffer
	if err := WriteReport(&report, b, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CONTINUOUS PROFILE — 2 snapshots", "HEAP DELTA", "repro/internal/kb.Build", "breach_cpu"} {
		if !strings.Contains(report.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, report.String())
		}
	}
}

// TestOnDemandCaptureFreezesRingWithoutBreachCPU: a plain GET of
// /debug/bundle carries the ring but takes no fresh CPU window; that
// takes ?cpu=1.
func TestOnDemandCaptureFreezesRingWithoutBreachCPU(t *testing.T) {
	sampler := newTestSampler(t)
	r, _, _, _ := newTestRecorder(t, func(c *Config) {
		c.Profiles = sampler
	})
	sampler.SampleNow()
	b := getBundle(t, r, "/debug/bundle")
	if b.Profiles == nil || len(b.Profiles.Ring) != 1 {
		t.Fatalf("on-demand profiles = %+v", b.Profiles)
	}
	if b.Profiles.BreachCPU != nil {
		t.Fatalf("on-demand capture took a breach CPU window: %q", b.Profiles.BreachCPU)
	}
}

// TestTriggerCapturesCPUOutsideLock: while an slo_breach trigger waits in
// its breach-window CPU capture, the recorder's lock is free, so Guard,
// Guard.Stop and the watchdog's Tick return; the trigger then writes its
// bundle with the capture.
func TestTriggerCapturesCPUOutsideLock(t *testing.T) {
	capturing := make(chan struct{})
	release := make(chan struct{})
	sampler := prof.New(prof.Config{
		Ring:     4,
		Registry: obs.NewRegistry(),
		Logger:   obs.NewLogger(io.Discard, obs.LevelError),
		CaptureCPU: func(time.Duration) ([]byte, error) {
			close(capturing)
			<-release
			return []byte("breach-window-cpu"), nil
		},
		Profile: func(string) ([]prof.Sample, error) { return nil, nil },
	})
	t.Cleanup(sampler.Close)
	r, clock, _, dir := newTestRecorder(t, func(c *Config) { c.Profiles = sampler })

	written := make(chan string)
	go func() { written <- r.Trigger(ReasonSLOBreach) }()
	<-capturing

	returned := make(chan struct{})
	go func() {
		g := r.Guard("eval")
		g.Stop()
		r.Tick(clock.Now())
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		close(release)
		<-written
		t.Fatal("Guard, Guard.Stop and Tick blocked behind the trigger's CPU capture")
	}
	close(release)

	got := <-written
	if got == "" || r.LastBundleDir() != got {
		t.Fatalf("trigger wrote %q, last bundle dir %q", got, r.LastBundleDir())
	}
	b, err := ReadBundle(got)
	if err != nil {
		t.Fatal(err)
	}
	if b.Profiles == nil || string(b.Profiles.BreachCPU) != "breach-window-cpu" {
		t.Fatalf("bundle profiles = %+v, want the breach-window capture", b.Profiles)
	}
	if bundles := listBundles(t, dir); len(bundles) != 1 {
		t.Fatalf("bundles = %v, want one", bundles)
	}
}

// TestConcurrentTriggersWriteOneAtATime: a trigger fired while another
// waits in its breach-window CPU capture writes only after the first has
// written, so with one bundle retained its prune removes the older bundle,
// not the one it left behind, and LastBundleDir names the bundle that
// survives.
func TestConcurrentTriggersWriteOneAtATime(t *testing.T) {
	capturing := make(chan struct{})
	release := make(chan struct{})
	sampler := prof.New(prof.Config{
		Ring:     4,
		Registry: obs.NewRegistry(),
		Logger:   obs.NewLogger(io.Discard, obs.LevelError),
		CaptureCPU: func(time.Duration) ([]byte, error) {
			close(capturing)
			<-release
			return []byte("breach-window-cpu"), nil
		},
		Profile: func(string) ([]prof.Sample, error) { return nil, nil },
	})
	t.Cleanup(sampler.Close)
	r, clock, _, dir := newTestRecorder(t, func(c *Config) {
		c.Profiles = sampler
		c.MaxBundles = 1
	})

	first := make(chan string)
	go func() { first <- r.Trigger(ReasonSLOBreach) }()
	<-capturing
	clock.Advance(time.Second)
	second := make(chan string)
	go func() { second <- r.Trigger(ReasonPanic) }()
	// Not needed to pass: time for a second trigger that did not wait for
	// the first to write and prune before it.
	time.Sleep(50 * time.Millisecond)
	close(release)
	<-first
	newest := <-second

	if newest == "" || r.LastBundleDir() != newest {
		t.Fatalf("second trigger wrote %q, last bundle dir %q", newest, r.LastBundleDir())
	}
	if bundles := listBundles(t, dir); len(bundles) != 1 || filepath.Join(dir, bundles[0]) != newest {
		t.Fatalf("bundles = %v, want only %s", bundles, newest)
	}
}
