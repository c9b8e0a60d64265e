package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/reqlog"
)

// sameCaptures reports whether two metric histories hold the same
// readings (times compared as instants, so a JSON round-trip's zone
// does not matter).
func sameCaptures(a, b []MetricCapture) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Time.Equal(b[i].Time) || !reflect.DeepEqual(a[i].Series, b[i].Series) {
			return false
		}
	}
	return true
}

// TestDebugBundleIsReadOnly: polling GET /debug/bundle leaves no trace.
// After one panic trigger and 20 GETs the flight directory holds that
// one bundle, on_demand neither counted nor logged a capture, and the
// next trigger's bundle carries the metric history it would carry
// without the GETs, plus its own reading. ?cpu=1 adds a fresh CPU
// window.
func TestDebugBundleIsReadOnly(t *testing.T) {
	sampler := newTestSampler(t)
	var logs bytes.Buffer
	r, clock, reg, dir := newTestRecorder(t, func(c *Config) {
		c.MaxBundles = 2
		c.MetricsHistory = 4
		c.Profiles = sampler
		c.Logger = obs.NewLogger(&logs, obs.LevelError)
	})
	sampler.SampleNow()
	for i := 0; i < 3; i++ {
		reg.Counter("qatk_pipeline_documents_total").Inc()
		r.Tick(clock.Advance(5 * time.Second))
	}
	panicDir := r.Trigger(ReasonPanic, obs.L("value", "boom"))
	if panicDir == "" {
		t.Fatal("panic trigger wrote no bundle")
	}
	r.mu.Lock()
	ring := append([]MetricCapture(nil), r.metricHist...)
	r.mu.Unlock()

	for i := 0; i < 20; i++ {
		now := clock.Advance(time.Second)
		b := getBundle(t, r, "/debug/bundle")
		// The stored history plus one fresh reading, bounded like the ring.
		if n := len(b.Metrics); n != 4 || !b.Metrics[n-1].Time.Equal(now) || !sameCaptures(b.Metrics[:n-1], ring[1:]) {
			t.Fatalf("GET %d: metrics are not the history plus one fresh reading: %+v", i, b.Metrics)
		}
		if b.Profiles == nil || len(b.Profiles.Ring) != 1 || b.Profiles.BreachCPU != nil {
			t.Fatalf("GET %d: profiles = %+v, want the ring and no CPU window", i, b.Profiles)
		}
	}

	if got := listBundles(t, dir); len(got) != 1 || filepath.Join(dir, got[0]) != panicDir {
		t.Fatalf("flight dir = %v, want only %s", got, filepath.Base(panicDir))
	}
	if got := reg.Counter(MetricFlightBundlesTotal, obs.L("reason", ReasonOnDemand)).Value(); got != 0 {
		t.Errorf("bundles{reason=on_demand} = %d, want 0", got)
	}
	if got := strings.Count(logs.String(), "diagnostic bundle captured"); got != 1 {
		t.Errorf("%d capture log lines, want 1 (the panic trigger):\n%s", got, logs.String())
	}

	now := clock.Advance(time.Second)
	next, err := ReadBundle(r.Trigger(ReasonGoroutineSpike))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(next.Metrics); n != 4 || !next.Metrics[n-1].Time.Equal(now) || !sameCaptures(next.Metrics[:n-1], ring[1:]) {
		t.Fatalf("next trigger's metrics = %+v, want the pre-GET history plus its own reading", next.Metrics)
	}

	b := getBundle(t, r, "/debug/bundle?cpu=1")
	if b.Profiles == nil || len(b.Profiles.BreachCPU) == 0 {
		t.Fatalf("?cpu=1 profiles = %+v, want a fresh CPU window", b.Profiles)
	}
}

// TestReadBundleRejectsCorruptSection: in a bundle directory a missing
// section file is an absent section, but one that fails to parse is an
// error naming the file, not an empty section.
func TestReadBundleRejectsCorruptSection(t *testing.T) {
	// A copy of the PR 5-era directory bundle, plus a requests section.
	bdir := t.TempDir()
	entries, err := os.ReadDir(filepath.Join("testdata", "pr5_bundle"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join("testdata", "pr5_bundle", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(bdir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := json.Marshal([]reqlog.Event{{TraceID: "0000000000000007", Method: "GET", Route: "/api/recommend", Status: 200}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(bdir, requestsFile)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if b, err := ReadBundle(bdir); err != nil || len(b.Requests) != 1 {
		t.Fatalf("intact %s: requests %+v, err %v", requestsFile, b, err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(bdir); err == nil || !strings.Contains(err.Error(), requestsFile) {
		t.Fatalf("truncated %s: err = %v, want a parse error naming it", requestsFile, err)
	}

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundle(bdir)
	if err != nil || b.Requests != nil {
		t.Fatalf("missing %s: requests %v, err %v; want an absent section", requestsFile, b, err)
	}
}

// TestByteSizeRendersEveryValue: byte counts arrive from outside input,
// so the extremes of both integer types render, -1<<63 included, and a
// bundle carrying that heap delta still renders a report.
func TestByteSizeRendersEveryValue(t *testing.T) {
	for _, c := range []struct{ got, want string }{
		{byteSize(int64(0)), "0 B"},
		{byteSize(int64(1023)), "1023 B"},
		{byteSize(int64(-1536)), "-1.5 KiB"},
		{byteSize(int64(-1 << 63)), "-8.0 EiB"},
		{byteSize(int64(1<<63 - 1)), "8.0 EiB"},
		{byteSize(uint64(1<<64 - 1)), "16.0 EiB"},
	} {
		if c.got != c.want {
			t.Errorf("byteSize = %q, want %q", c.got, c.want)
		}
	}

	b := &Bundle{Profiles: &prof.Capture{Ring: []prof.Snapshot{{
		HeapDelta: []prof.FrameDelta{{Func: "repro/internal/kb.Build", DeltaBytes: -1 << 63, NowBytes: -1 << 63}},
	}}}}
	var report bytes.Buffer
	if err := WriteReport(&report, b, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "-8.0 EiB") {
		t.Fatalf("report does not render the -1<<63 delta:\n%s", report.String())
	}
}

// TestWriteReportRendersProfiles: the profile section shows goroutine
// growth, the newest heap deltas, top frames per profile and the breach
// CPU window; the ring history only when verbose. A bundle that still
// carries the mutex and block summaries earlier builds wrote decodes,
// and its report shows neither.
func TestWriteReportRendersProfiles(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	b := &Bundle{Profiles: &prof.Capture{
		WindowNs:  int64(250 * time.Millisecond),
		BreachCPU: []byte("breach-window-cpu"),
		Ring: []prof.Snapshot{
			{Time: t0, Goroutines: 4, Heap: prof.ProfileSummary{Total: 3, TotalBytes: 4096}},
			{
				Time: t0.Add(30 * time.Second), Goroutines: 7,
				Heap: prof.ProfileSummary{Total: 4, TotalBytes: 73728, Top: []prof.Frame{
					{Func: "repro/internal/kb.Build", Value: 3, Bytes: 71680},
				}},
				Goroutine: prof.ProfileSummary{Total: 7, Top: []prof.Frame{
					{Func: "repro/internal/repl.(*Replica).run", Value: 5},
				}},
				HeapDelta: []prof.FrameDelta{{Func: "repro/internal/kb.Build", DeltaBytes: 69632, DeltaValue: 1, NowBytes: 71680}},
			},
		},
	}}
	for _, verbose := range []bool{false, true} {
		var report bytes.Buffer
		if err := WriteReport(&report, b, verbose); err != nil {
			t.Fatal(err)
		}
		out := report.String()
		for _, want := range []string{
			"CONTINUOUS PROFILE — 2 snapshots over 30s",
			"breach_cpu",
			"== GOROUTINE GROWTH ==",
			"(+3)",
			"== HEAP DELTA (newest window) ==",
			"+68.0 KiB",
			"== HEAP IN-USE (top frames) ==",
			"repro/internal/kb.Build",
			"== GOROUTINES (top frames) ==",
			"repro/internal/repl.(*Replica).run",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("verbose=%v: report missing %q:\n%s", verbose, want, out)
			}
		}
		if got := strings.Contains(out, "== RING HISTORY =="); got != verbose {
			t.Errorf("verbose=%v: ring history shown = %v:\n%s", verbose, got, out)
		}
	}

	old, err := DecodeBundle(strings.NewReader(`{"schema": 1, "profiles": {"ring": [{
		"heap": {"total": 1, "top": [{"func": "repro/internal/kb.Build", "value": 1}]},
		"mutex": {"total": 18718, "top": [{"func": "sync.(*Mutex).Unlock", "value": 18718}]},
		"block": {"total": 3, "top": [{"func": "sync.(*Cond).Wait", "value": 3}]}}]}}`), "mutex-era bundle")
	if err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if err := WriteReport(&report, old, true); err != nil {
		t.Fatal(err)
	}
	if out := report.String(); !strings.Contains(out, "repro/internal/kb.Build") ||
		strings.Contains(out, "MUTEX") || strings.Contains(out, "BLOCKING") || strings.Contains(out, "sync.") {
		t.Fatalf("mutex-era bundle report:\n%s", out)
	}
}

// TestWriteReportEmptyProfileRing: a profiler that has not sampled yet
// renders as an empty section, and a bundle without a profiler renders
// none.
func TestWriteReportEmptyProfileRing(t *testing.T) {
	var report bytes.Buffer
	if err := WriteReport(&report, &Bundle{Profiles: &prof.Capture{}}, false); err != nil {
		t.Fatal(err)
	}
	if out := report.String(); !strings.Contains(out, "CONTINUOUS PROFILE — 0 snapshots") ||
		!strings.Contains(out, "has not completed a snapshot") {
		t.Fatalf("empty ring report:\n%s", out)
	}
	report.Reset()
	if err := WriteReport(&report, &Bundle{}, false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(report.String(), "CONTINUOUS PROFILE") {
		t.Fatalf("profile section without a profiler:\n%s", report.String())
	}
}

// TestWriteReportRendersRequests: the requests section shows the newest
// ten events in block form, every one with -v, and each event's first
// line carries its retention reasons.
func TestWriteReportRendersRequests(t *testing.T) {
	var events []reqlog.Event
	for i := 12; i > 0; i-- {
		events = append(events, reqlog.Event{
			TraceID: fmt.Sprintf("%016x", i), Method: "GET", Route: "/api/recommend",
			Status: 200, Duration: time.Duration(i) * time.Millisecond,
			Reasons: []string{"slow"},
		})
	}
	events[0].Status = 503
	events[0].Reasons = []string{"degraded", "status"}
	events[0].Part, events[0].Features = "P03", 3
	events[0].Degraded, events[0].FailedShards = true, []int{2}
	events[0].Stages = []reqlog.StageTiming{{Name: "score", Duration: 3 * time.Millisecond}}
	events[0].Shards = []reqlog.ShardAttempt{{Shard: 2, Attempt: 1, Duration: 9 * time.Millisecond, Err: "context deadline exceeded"}}

	for _, verbose := range []bool{false, true} {
		var report bytes.Buffer
		if err := WriteReport(&report, &Bundle{Requests: events}, verbose); err != nil {
			t.Fatal(err)
		}
		out := report.String()
		for _, want := range []string{
			"== REQUESTS (12 retained, newest first) ==",
			"  GET /api/recommend -> 503 in 12ms  trace=000000000000000c  [degraded,status]",
			"    query part=P03 features=3",
			"    outcome degraded failed_shards=2",
			"    stages score=3ms",
			"    shard 2 primary 9ms err=context deadline exceeded",
			"trace=0000000000000003  [slow]",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("verbose=%v: report missing %q:\n%s", verbose, want, out)
			}
		}
		oldest := strings.Contains(out, "trace=0000000000000001")
		more := strings.Contains(out, "… 2 more older requests (rerun with -v)")
		if oldest != verbose || more == verbose {
			t.Errorf("verbose=%v: oldest shown %v, cut noted %v:\n%s", verbose, oldest, more, out)
		}
	}
}

// TestWriteReportRendersReplicaServing: an answer a stale read replica
// served says so in its outcome flags, and the attempt the replica
// served names it, so it does not read like a primary's answer.
func TestWriteReportRendersReplicaServing(t *testing.T) {
	ev := reqlog.Event{
		TraceID: "00000000000000aa", Method: "GET", Route: "/api/recommend",
		Status: 200, Duration: 31 * time.Millisecond, Reasons: []string{"slow"},
		Hedged: true, Replica: true, Stale: true,
		Shards: []reqlog.ShardAttempt{
			{Shard: 1, Attempt: 1, Duration: 30 * time.Millisecond, Err: "context canceled"},
			{Shard: 1, Attempt: 2, Hedged: true, Winner: true, Replica: "shard1-r0", Duration: 2 * time.Millisecond},
		},
	}
	var report bytes.Buffer
	if err := WriteReport(&report, &Bundle{Requests: []reqlog.Event{ev}}, false); err != nil {
		t.Fatal(err)
	}
	out := report.String()
	for _, want := range []string{
		"    outcome hedged replica stale",
		"    shard 1 primary 30ms err=context canceled",
		"    shard 1 replica=shard1-r0 2ms winner",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// FuzzDecodeBundle feeds arbitrary bytes to the single-document reader
// — a /debug/bundle response or a bundle file is outside input to
// `qatk diagnose` — and renders whatever it accepts, plain and verbose.
// No input may panic, and a bundle from a newer schema must be refused.
// Seeds in testdata/fuzz/FuzzDecodeBundle: the PR 8-era bundle, a heap
// delta of -1<<63 bytes, a schema-2 bundle and {}.
func FuzzDecodeBundle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBundle(bytes.NewReader(data), "fuzz input")
		if err != nil {
			return
		}
		if b.Schema > BundleSchema {
			t.Fatalf("accepted a schema %d bundle", b.Schema)
		}
		for _, verbose := range []bool{false, true} {
			if err := WriteReport(io.Discard, b, verbose); err != nil {
				t.Fatal(err)
			}
		}
	})
}
