package flight

import (
	"bytes"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock is a hand-advanced time source shared by recorder and tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1700000000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

// newTestRecorder builds a recorder with every source wired, a fake
// clock, and rate limiting effectively off unless the test opts in.
func newTestRecorder(t *testing.T, mutate func(*Config)) (*Recorder, *fakeClock, *obs.Registry, string) {
	t.Helper()
	dir := t.TempDir()
	clock := newFakeClock()
	reg := obs.NewRegistry().WithClock(clock.Now)
	cfg := Config{
		Dir:      dir,
		Clock:    clock.Now,
		Registry: reg,
		Tracer:   obs.NewTracer(16, obs.WithClock(clock.Now)),
		Logs:     obs.NewRingSink(nil, 32),
		Logger:   obs.NewLogger(io.Discard, obs.LevelError),
		// Per-test triggers opt in; keep the others out of the way.
		SLOTarget:      0,
		StallDeadline:  time.Hour,
		GoroutineLimit: -1,
		MinInterval:    -1, // no rate limit
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r := New(cfg)
	t.Cleanup(r.Close)
	return r, clock, reg, dir
}

// listBundles returns the bundle file names under dir, sorted by the
// directory listing order (names sort chronologically).
func listBundles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "bundle-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// watchLatency registers a request-duration histogram with the SLO
// watchdog, as quest.NewServer does, and returns it.
func watchLatency(r *Recorder, reg *obs.Registry) *obs.Histogram {
	h := reg.Histogram("quest_http_request_duration_seconds", obs.DefBuckets)
	r.WatchLatency(h)
	return h
}

// observe records n requests of latency d.
func observe(h *obs.Histogram, n int, d time.Duration) {
	for i := 0; i < n; i++ {
		h.Observe(d.Seconds())
	}
}

// TestSLOWatchdogTriggersAfterConsecutiveBreaches drives the window over
// the registered histogram with an injected clock: two over-budget windows
// in a row fire exactly one slo_breach bundle, and a healthy window resets
// the streak.
func TestSLOWatchdogTriggersAfterConsecutiveBreaches(t *testing.T) {
	r, clock, reg, dir := newTestRecorder(t, func(c *Config) {
		c.SLOTarget = 100 * time.Millisecond
		c.SLOWindow = 10 * time.Second
		c.SLOBreaches = 2
		c.SLOMinSamples = 1
	})
	h := watchLatency(r, reg)
	r.Tick(clock.Now()) // arm the first window

	// Window 1: slow. Breach streak 1, no bundle yet.
	observe(h, 20, 500*time.Millisecond)
	r.Tick(clock.Advance(10 * time.Second))
	if got := listBundles(t, dir); len(got) != 0 {
		t.Fatalf("bundle fired after a single breach window: %v", got)
	}
	if got := reg.Counter(MetricSLOBreachesTotal).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricSLOBreachesTotal, got)
	}

	// Window 2: fast. Streak resets.
	observe(h, 1, time.Millisecond)
	r.Tick(clock.Advance(10 * time.Second))

	// Windows 3+4: slow twice in a row → exactly one bundle.
	observe(h, 20, 500*time.Millisecond)
	r.Tick(clock.Advance(10 * time.Second))
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
	if b.Reason != ReasonSLOBreach {
		t.Errorf("reason = %q", b.Reason)
	}
	if b.Details["p99_seconds"] != "0.5" {
		t.Errorf("p99 detail = %q, want 0.5", b.Details["p99_seconds"])
	}
	if got := reg.Counter(MetricSLOBreachesTotal).Value(); got != 3 {
		t.Errorf("%s = %d, want 3", MetricSLOBreachesTotal, got)
	}
}

// TestSLOQuietWindowNeitherBreachesNorResets: a window with too few
// samples is skipped — the breach streak carries across it.
func TestSLOQuietWindowNeitherBreachesNorResets(t *testing.T) {
	r, clock, reg, dir := newTestRecorder(t, func(c *Config) {
		c.SLOTarget = 100 * time.Millisecond
		c.SLOWindow = 10 * time.Second
		c.SLOBreaches = 2
		c.SLOMinSamples = 5
	})
	h := watchLatency(r, reg)
	r.Tick(clock.Now())

	observe(h, 10, 500*time.Millisecond)
	r.Tick(clock.Advance(10 * time.Second)) // breach, streak 1

	observe(h, 1, time.Millisecond) // 1 sample < SLOMinSamples: quiet
	r.Tick(clock.Advance(10 * time.Second))

	observe(h, 10, 500*time.Millisecond)
	r.Tick(clock.Advance(10 * time.Second)) // breach, streak 2 → trigger

	if got := listBundles(t, dir); len(got) != 1 {
		t.Fatalf("bundles = %v, want one (quiet window must not reset the streak)", got)
	}
}

// TestStallGuardFiresOnceAndBeatRearms: a guard with no heartbeat past
// the deadline fires one stall bundle (not one per Tick); a Beat re-arms
// it; Stop disarms it for good.
func TestStallGuardFiresOnceAndBeatRearms(t *testing.T) {
	r, clock, _, dir := newTestRecorder(t, func(c *Config) {
		c.StallDeadline = time.Minute
	})
	g := r.Guard("pipeline.run")

	r.Tick(clock.Advance(30 * time.Second))
	if got := listBundles(t, dir); len(got) != 0 {
		t.Fatalf("stall fired before the deadline: %v", got)
	}

	r.Tick(clock.Advance(45 * time.Second)) // 75s since heartbeat
	r.Tick(clock.Advance(10 * time.Second)) // still stalled — must not re-fire
	bundles := listBundles(t, dir)
	if len(bundles) != 1 || !strings.HasSuffix(bundles[0], "-stall.json") {
		t.Fatalf("bundles = %v, want exactly one stall", bundles)
	}
	b, err := ReadBundle(filepath.Join(dir, bundles[0]))
	if err != nil {
		t.Fatal(err)
	}
	if b.Details["guard"] != "pipeline.run" {
		t.Errorf("guard detail = %q", b.Details["guard"])
	}

	g.Beat() // progress → re-armed
	r.Tick(clock.Advance(90 * time.Second))
	if got := listBundles(t, dir); len(got) != 2 {
		t.Fatalf("re-armed guard did not fire again: %v", got)
	}

	g.Stop()
	r.Tick(clock.Advance(time.Hour))
	if got := listBundles(t, dir); len(got) != 2 {
		t.Fatalf("stopped guard fired: %v", got)
	}
}

// TestGoroutineSpikeLatches: crossing the limit fires once; staying above
// it stays latched; dipping below and crossing again fires again.
func TestGoroutineSpikeLatches(t *testing.T) {
	var n int
	r, clock, _, dir := newTestRecorder(t, func(c *Config) {
		c.GoroutineLimit = 100
		c.Goroutines = func() int { return n }
	})
	n = 50
	r.Tick(clock.Advance(time.Second))
	n = 150
	r.Tick(clock.Advance(time.Second))
	r.Tick(clock.Advance(time.Second)) // latched
	if got := listBundles(t, dir); len(got) != 1 || !strings.HasSuffix(got[0], "-goroutine_spike.json") {
		t.Fatalf("bundles = %v, want one goroutine_spike", got)
	}
	n = 50
	r.Tick(clock.Advance(time.Second))
	n = 200
	r.Tick(clock.Advance(time.Second))
	if got := listBundles(t, dir); len(got) != 2 {
		t.Fatalf("bundles after re-spike = %v, want 2", got)
	}
}

// TestTriggerRateLimitAndOnDemandBypass: anomaly triggers inside
// MinInterval are suppressed and counted; GET /debug/bundle still
// answers during the limit, and writes nothing.
func TestTriggerRateLimitAndOnDemandBypass(t *testing.T) {
	r, clock, reg, dir := newTestRecorder(t, func(c *Config) {
		c.MinInterval = time.Minute
	})
	if d := r.Trigger(ReasonPanic, obs.L("value", "boom")); d == "" {
		t.Fatal("first trigger suppressed")
	}
	clock.Advance(10 * time.Second)
	if d := r.Trigger(ReasonPanic); d != "" {
		t.Fatal("second trigger inside MinInterval was not suppressed")
	}
	if got := reg.Counter(MetricFlightSuppressedTotal).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricFlightSuppressedTotal, got)
	}
	if b := getBundle(t, r, "/debug/bundle"); b.Reason != ReasonOnDemand {
		t.Fatalf("on-demand view during rate limit: reason %q", b.Reason)
	}
	if got := listBundles(t, dir); len(got) != 1 {
		t.Fatalf("bundles = %v, want the panic bundle only", got)
	}
	clock.Advance(time.Minute)
	if d := r.Trigger(ReasonCircuitBreaker); d == "" {
		t.Fatal("trigger after MinInterval elapsed was suppressed")
	}
	if got := reg.Counter(MetricFlightBundlesTotal, obs.L("reason", ReasonPanic)).Value(); got != 1 {
		t.Errorf("bundles{reason=panic} = %d, want 1", got)
	}
	if got := listBundles(t, dir); len(got) != 2 {
		t.Fatalf("bundles = %v, want panic + circuit_breaker", got)
	}
}

// getBundle GETs path from the recorder's handler and decodes the
// response through the one reader of the single-document form.
func getBundle(t *testing.T, r *Recorder, path string) *Bundle {
	t.Helper()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s = %d, body %s", path, rec.Code, rec.Body.String())
	}
	b, err := DecodeBundle(rec.Body, path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return b
}

// TestBundleRoundTripDirAndJSON: both ways a bundle leaves the recorder
// carry every section — the file a Trigger writes, and the document GET
// /debug/bundle answers, saved to a file — with spans, logs, metrics, and
// extras intact.
func TestBundleRoundTripDirAndJSON(t *testing.T) {
	r, clock, reg, dir := newTestRecorder(t, func(c *Config) {})
	r.AddInfo("reldb", func() map[string]string {
		return map[string]string{"wal_bytes": "4096", "sync_policy": "interval"}
	})
	reg.Counter("qatk_pipeline_documents_total").Add(5)
	sp := r.cfg.Tracer.Start(nil, "pipeline.run")
	clock.Advance(20 * time.Millisecond)
	sp.End(nil)
	r.cfg.Logs.Write([]byte("ts=0 level=info msg=hello\n"))
	r.Tick(clock.Advance(time.Second))
	reg.Counter("qatk_pipeline_documents_total").Add(3)
	r.Tick(clock.Advance(time.Second))

	path := r.Trigger(ReasonPanic, obs.L("value", "test"))
	if path == "" {
		t.Fatal("no bundle file written")
	}
	fromDir, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/bundle", nil))
	jsonPath := filepath.Join(dir, "download.json")
	if err := os.WriteFile(jsonPath, rec.Body.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := ReadBundle(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromDir.Reason != ReasonPanic || fromDir.Details["value"] != "test" {
		t.Errorf("dir: reason/details = %q/%v", fromDir.Reason, fromDir.Details)
	}
	if fromJSON.Reason != ReasonOnDemand || fromJSON.Details["remote"] == "" {
		t.Errorf("json: reason/details = %q/%v", fromJSON.Reason, fromJSON.Details)
	}

	for name, got := range map[string]*Bundle{"dir": fromDir, "json": fromJSON} {
		if len(got.Spans) != 1 || got.Spans[0].Name != "pipeline.run" {
			t.Errorf("%s: spans = %+v", name, got.Spans)
		}
		if len(got.Logs) != 1 || !strings.Contains(got.Logs[0], "msg=hello") {
			t.Errorf("%s: logs = %v", name, got.Logs)
		}
		if got.Extras["reldb"]["wal_bytes"] != "4096" {
			t.Errorf("%s: extras = %v", name, got.Extras)
		}
		if len(got.Metrics) < 2 {
			t.Fatalf("%s: %d metric captures, want >= 2", name, len(got.Metrics))
		}
		deltas := got.Deltas()
		var found bool
		for _, d := range deltas {
			if d.Series == "qatk_pipeline_documents_total" && d.Delta == 3 && d.Now == 8 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: deltas missing documents_total +3 (got %+v)", name, deltas)
		}
	}
}

// TestMetricHistoryKeepsExemplarBuckets: a histogram bucket that carries
// an OpenMetrics exemplar is captured under its own series name with its
// count, and no series key swallows an exemplar.
func TestMetricHistoryKeepsExemplarBuckets(t *testing.T) {
	r, clock, reg, _ := newTestRecorder(t, nil)
	h := reg.Histogram("quest_http_request_duration_seconds", obs.DefBuckets)
	h.Observe(0.003)
	h.Observe(0.004)
	h.Exemplar(0.004, "00000000000000aa", clock.Now())
	r.Tick(clock.Advance(time.Second))

	b := getBundle(t, r, "/debug/bundle")
	if len(b.Metrics) != 2 {
		t.Fatalf("%d metric captures, want the tick's and the view's", len(b.Metrics))
	}
	for i, m := range b.Metrics {
		if got, ok := m.Series[`quest_http_request_duration_seconds_bucket{le="0.005"}`]; !ok || got != 2 {
			t.Errorf("capture %d: le=0.005 bucket = %v (present %v), want 2", i, got, ok)
		}
		for key := range m.Series {
			if strings.Contains(key, " # ") {
				t.Errorf("capture %d: series key %q carries an exemplar", i, key)
			}
		}
	}
}

// TestMetricReadsAreNotScrapes: the watchdog's metric capture and GET
// /debug/bundle read the registry without scraping it, so the scrape
// self-instrumentation moves only when the exposition is rendered.
func TestMetricReadsAreNotScrapes(t *testing.T) {
	r, clock, reg, _ := newTestRecorder(t, nil)
	scrapes := reg.Counter(obs.MetricScrapeTotal)
	scrapeTime := reg.Histogram(obs.MetricScrapeSeconds, obs.ScrapeBuckets)
	r.Tick(clock.Advance(time.Second))
	r.Tick(clock.Advance(time.Second))
	for i := 0; i < 3; i++ {
		getBundle(t, r, "/debug/bundle")
	}
	if scrapes.Value() != 0 || scrapeTime.Count() != 0 {
		t.Fatalf("2 ticks and 3 GETs counted %d scrapes and timed %d", scrapes.Value(), scrapeTime.Count())
	}
	if err := reg.WriteProm(io.Discard); err != nil {
		t.Fatal(err)
	}
	if scrapes.Value() != 1 || scrapeTime.Count() != 1 {
		t.Fatalf("a rendered exposition counted %d scrapes and timed %d, want 1 and 1", scrapes.Value(), scrapeTime.Count())
	}
}

// TestReadBundleRejectsNewerSchema guards against silently misreading a
// bundle written by a future build.
func TestReadBundleRejectsNewerSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bundle.json")
	if err := os.WriteFile(path, []byte(`{"schema": 99, "reason": "x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(path); err == nil || !strings.Contains(err.Error(), "schema 99") {
		t.Fatalf("err = %v, want schema rejection", err)
	}
}

// TestRetentionPrunesOldest: MaxBundles is enforced on triggered
// bundles with oldest-first deletion.
func TestRetentionPrunesOldest(t *testing.T) {
	r, clock, _, dir := newTestRecorder(t, func(c *Config) {
		c.MaxBundles = 3
	})
	for i := 0; i < 5; i++ {
		if r.Trigger(ReasonPanic) == "" {
			t.Fatal("trigger wrote no bundle")
		}
		clock.Advance(time.Second)
	}
	bundles := listBundles(t, dir)
	if len(bundles) != 3 {
		t.Fatalf("retained %d bundles, want 3: %v", len(bundles), bundles)
	}
	// The survivors are the newest three (names sort chronologically).
	first := "bundle-" + time.Unix(1700000000, 0).UTC().Add(2*time.Second).Format("20060102T150405Z")
	if !strings.HasPrefix(bundles[0], first) {
		t.Errorf("oldest survivor %q, want prefix %q", bundles[0], first)
	}
}

// TestHandlerServesParseableBundle: GET /debug/bundle answers a JSON
// document DecodeBundle reads, with the attachment headers set and no
// bundle file named, since none is written.
func TestHandlerServesParseableBundle(t *testing.T) {
	r, _, _, _ := newTestRecorder(t, func(c *Config) {})
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/bundle", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	b, err := DecodeBundle(bytes.NewReader(rec.Body.Bytes()), "response")
	if err != nil {
		t.Fatalf("response not a bundle: %v", err)
	}
	if b.Reason != ReasonOnDemand || b.Details["remote"] == "" {
		t.Errorf("reason/remote = %q/%q", b.Reason, b.Details["remote"])
	}
	if cd := rec.Header().Get("Content-Disposition"); !strings.Contains(cd, "attachment") {
		t.Errorf("Content-Disposition = %q", cd)
	}
	if got := rec.Header().Get("X-Flight-Bundle-Dir"); got != "" {
		t.Errorf("X-Flight-Bundle-Dir = %q, want none", got)
	}
	// Nil recorder: disabled, not broken.
	rec = httptest.NewRecorder()
	(*Recorder)(nil).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/bundle", nil))
	if rec.Code != 503 {
		t.Errorf("nil recorder status = %d, want 503", rec.Code)
	}
}

// TestWriteReport smoke-tests the incident report against a real capture:
// every section header renders and the trigger details appear.
func TestWriteReport(t *testing.T) {
	r, clock, reg, _ := newTestRecorder(t, func(c *Config) {})
	r.AddInfo("reldb", func() map[string]string { return map[string]string{"sync_policy": "always"} })
	reg.Counter("qatk_pipeline_documents_total").Add(2)
	r.cfg.Logs.Write([]byte("ts=0 level=error msg=boom\n"))
	sp := r.cfg.Tracer.Start(nil, "quest.query")
	sp.End(nil)
	r.Tick(clock.Advance(time.Second))
	reg.Counter("qatk_pipeline_documents_total").Add(2)
	r.Tick(clock.Advance(time.Second))
	b, err := ReadBundle(r.Trigger(ReasonPanic, obs.L("value", "nil deref")))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteReport(&sb, b, false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"INCIDENT REPORT — PANIC",
		"value                nil deref",
		"== RUNTIME ==",
		"== SUBSYSTEM RELDB ==",
		"sync_policy          always",
		"== METRIC MOVEMENT",
		"qatk_pipeline_documents_total",
		"== SPANS BY TOTAL TIME ==",
		"quest.query",
		"== LOG TAIL",
		"msg=boom",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if err := WriteReport(&sb, nil, false); err == nil {
		t.Error("nil bundle must error")
	}
}

// TestNilRecorderIsNoOp: the disabled state the hot paths rely on.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.WatchLatency(obs.NewRegistry().Histogram("quest_http_request_duration_seconds", obs.DefBuckets))
	g := r.Guard("anything")
	g.Beat()
	g.Stop()
	r.AddInfo("x", func() map[string]string { return nil })
	r.Tick(time.Unix(0, 0))
	r.Watch(time.Second)
	if d := r.Trigger(ReasonPanic); d != "" {
		t.Errorf("nil Trigger = %q", d)
	}
	if r.LastBundleDir() != "" {
		t.Error("nil LastBundleDir non-empty")
	}
	r.Close()
}

// TestWatchLoopTicks: the background loop drives Tick off the real
// ticker; a guard stalled under the injected clock produces a bundle
// without any explicit Tick calls.
func TestWatchLoopTicks(t *testing.T) {
	r, clock, _, dir := newTestRecorder(t, func(c *Config) {
		c.StallDeadline = time.Minute
	})
	r.Guard("eval.fold")
	clock.Advance(10 * time.Minute) // stalled per the fake clock
	r.Watch(time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(listBundles(t, dir)) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := listBundles(t, dir); len(got) == 0 {
		t.Fatal("watch loop never fired the stall trigger")
	}
	r.Close()
	r.Close() // idempotent
}
