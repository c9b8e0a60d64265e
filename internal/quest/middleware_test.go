package quest

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/reqlog"
	"repro/internal/reldb"
)

// syncBuilder is a strings.Builder safe for the concurrent writes a live
// HTTP server produces.
type syncBuilder struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuilder) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuilder) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// TestRecoverMiddleware: a panicking handler answers 500, the panic is
// counted and logged, and the wrapping handler (the process) stays alive
// for the next request.
func TestRecoverMiddleware(t *testing.T) {
	var logged syncBuilder
	logger := obs.NewLogger(&logged, obs.LevelInfo)
	reg := obs.NewRegistry()
	panics := reg.Counter(MetricPanicsTotal)
	calls := 0
	h := Recover(logger, panics, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if r.URL.Path == "/boom" {
			panic("handler bug")
		}
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(logged.String(), "handler bug") || !strings.Contains(logged.String(), "path=/boom") {
		t.Fatalf("panic not logged with attribution: %q", logged.String())
	}
	if got := panics.Value(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
	// The process survived: the next request is served normally.
	resp, err = http.Get(ts.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || calls != 2 {
		t.Fatalf("status=%d calls=%d after panic", resp.StatusCode, calls)
	}
}

// TestServerPanicReturns500 drives a panic through the full Server handler
// chain via a route registered on the internal mux.
func TestServerPanicReturns500(t *testing.T) {
	db, err := reldb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var logged syncBuilder
	s, err := NewServer(Config{DB: db, Logger: obs.NewLogger(&logged, obs.LevelInfo)})
	if err != nil {
		t.Fatal(err)
	}
	s.mux.HandleFunc("/test/panic", func(http.ResponseWriter, *http.Request) {
		panic("injected handler panic")
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/test/panic")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(logged.String(), "injected handler panic") {
		t.Fatal("panic not logged with attribution")
	}
	// Liveness is unaffected.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic = %d", resp.StatusCode)
	}
}

func TestWithTimeoutBoundsSlowHandlers(t *testing.T) {
	handlerDone := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(handlerDone)
		select {
		case <-time.After(2 * time.Second):
			w.WriteHeader(http.StatusOK)
		case <-r.Context().Done():
		}
	})
	reg := obs.NewRegistry()
	timeouts := reg.Counter(MetricTimeoutsTotal)
	var logged syncBuilder
	logger := obs.NewLogger(&logged, obs.LevelInfo)
	ts := httptest.NewServer(WithTimeout(20*time.Millisecond, timeouts, logger, slow))
	defer ts.Close()
	start := time.Now()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout middleware did not cut the handler short")
	}
	// The watcher runs after the handler goroutine returns; wait for it.
	select {
	case <-handlerDone:
	case <-time.After(time.Second):
		t.Fatal("handler never observed its context deadline")
	}
	// WithTimeout counts the timeout before it logs it: wait for the log
	// line, written last, then check both.
	const line = `msg="request timed out"`
	deadline := time.Now().Add(time.Second)
	for !strings.Contains(logged.String(), line) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !strings.Contains(logged.String(), line) {
		t.Fatalf("timeout not logged: %q", logged.String())
	}
	if got := timeouts.Value(); got != 1 {
		t.Fatalf("timeouts counter = %d, want 1", got)
	}
}

// TestInstrumentMiddleware: one request through Instrument increments the
// status-coded request counter, observes one latency sample, records a
// span, and returns the in-flight gauge to zero.
func TestInstrumentMiddleware(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(8)
	var sawInflight float64
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawInflight = reg.Gauge(MetricHTTPRequestsInflight).Value()
		w.WriteHeader(http.StatusTeapot)
	})
	rec := httptest.NewRecorder()
	Instrument(reg, tr, nil, false, inner).ServeHTTP(rec, httptest.NewRequest("GET", "/bundle/R1", nil))

	if rec.Code != http.StatusTeapot {
		t.Fatalf("status = %d", rec.Code)
	}
	if sawInflight != 1 {
		t.Errorf("in-flight during request = %g, want 1", sawInflight)
	}
	if got := reg.Gauge(MetricHTTPRequestsInflight).Value(); got != 0 {
		t.Errorf("in-flight after request = %g, want 0", got)
	}
	if got := reg.Counter(MetricHTTPRequestsTotal, obs.L("code", "418")).Value(); got != 1 {
		t.Errorf("request counter = %d, want 1", got)
	}
	if got := reg.Histogram(MetricHTTPRequestDurationSeconds, obs.DefBuckets).Count(); got != 1 {
		t.Errorf("latency observations = %d, want 1", got)
	}
	spans := tr.Snapshot()
	if len(spans) != 1 || spans[0].Name != spanHTTPRequest {
		t.Fatalf("spans = %+v", spans)
	}
	var gotCode bool
	for _, a := range spans[0].Attrs {
		if a == obs.L("code", "418") {
			gotCode = true
		}
	}
	if !gotCode {
		t.Errorf("span attrs missing status code: %+v", spans[0].Attrs)
	}
}

// TestInstrumentBoundsRecordedPath: a request path of 512 KiB, answered
// 404 and so retained by the request log, is recorded as its first
// maxRecordedBytes bytes, in the wide event and in the span alike. The
// recorded method and path are copies: net/http slices both out of the
// request line, which a recorded slice would keep alive whole.
func TestInstrumentBoundsRecordedPath(t *testing.T) {
	tr := obs.NewTracer(8)
	rl := reqlog.New(reqlog.Config{})
	path := "/" + strings.Repeat("a", 512<<10)
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	Instrument(nil, tr, rl, false, http.NotFoundHandler()).ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
	want := path[:maxRecordedBytes]
	events := rl.Snapshot()
	if len(events) != 1 {
		t.Fatalf("retained events = %d, want 1", len(events))
	}
	ev := events[0]
	if ev.Method != "GET" || ev.Route != want {
		t.Errorf("event: %s with a route of %d bytes, want GET and the first %d bytes", ev.Method, len(ev.Route), maxRecordedBytes)
	}
	if unsafe.StringData(ev.Method) == unsafe.StringData(req.Method) || unsafe.StringData(ev.Route) == unsafe.StringData(req.URL.Path) {
		t.Error("the event shares memory with the request line")
	}
	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	if got := spans[0].Attrs; !slices.Contains(got, obs.L("path", want)) {
		for _, a := range got {
			t.Errorf("span attribute %s of %d bytes", a.Key, len(a.Value))
		}
		t.Errorf("span lacks the path's first %d bytes", maxRecordedBytes)
	}
}

// TestInstrumentPreservesFlusher: statusRecorder forwards Flush and
// exposes the wrapped writer via Unwrap, so streaming handlers behind
// Instrument keep their http.Flusher / ResponseController support.
func TestInstrumentPreservesFlusher(t *testing.T) {
	var flushed bool
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("instrumented writer lost http.Flusher")
			return
		}
		fmt.Fprint(w, "chunk")
		f.Flush()
		flushed = true
		if err := http.NewResponseController(w).Flush(); err != nil {
			t.Errorf("ResponseController.Flush via Unwrap: %v", err)
		}
	})
	rec := httptest.NewRecorder()
	Instrument(obs.NewRegistry(), obs.NewTracer(8), nil, false, inner).ServeHTTP(rec, httptest.NewRequest("GET", "/stream", nil))
	if !flushed {
		t.Fatal("handler never reached Flush")
	}
	if !rec.Flushed {
		t.Fatal("Flush was not forwarded to the underlying writer")
	}
}

// TestServerServesMetrics: the full server exposes a parseable exposition
// on /metrics including the serving and build families.
func TestServerServesMetrics(t *testing.T) {
	db, err := reldb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	reg := obs.NewRegistry()
	s, err := NewServer(Config{DB: db, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	// One application request so the request counter has a real sample.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE quest_http_requests_total counter",
		`quest_http_requests_total{code="200"} 1`,
		"# TYPE quest_http_request_duration_seconds histogram",
		"quest_http_request_duration_seconds_bucket",
		"# TYPE quest_panics_total counter",
		"# TYPE quest_timeouts_total counter",
		"# TYPE build_info gauge",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

func TestHealthAndReadiness(t *testing.T) {
	// A full application database with comparison data: fully ready.
	ts, _ := testServer(t)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rd struct{ Status, DB, Comparison string }
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rd.Status != "ok" || rd.DB != "ok" {
		t.Fatalf("readyz: %d %+v", resp.StatusCode, rd)
	}
	if rd.Comparison != "loaded" {
		t.Fatalf("comparison state = %q, want loaded", rd.Comparison)
	}
}

func TestReadinessReportsComparisonNote(t *testing.T) {
	db, err := reldb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err := NewServer(Config{DB: db, ComparisonNote: "no ODI complaints imported"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rd struct{ Status, DB, Comparison string }
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// No bundles table in this bare database: not ready, and the degraded
	// comparison carries its reason.
	if resp.StatusCode != http.StatusServiceUnavailable || rd.Status != "unavailable" {
		t.Fatalf("readyz on bare db: %d %+v", resp.StatusCode, rd)
	}
	if rd.Comparison != "degraded: no ODI complaints imported" {
		t.Fatalf("comparison = %q", rd.Comparison)
	}
}

// TestGracefulDrain: under in-flight load, a stop signal lets running
// requests complete within the shutdown budget, then the listener closes.
func TestGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		started <- struct{}{}
		<-release
		fmt.Fprint(w, "done")
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	stop := make(chan struct{})
	serveErr := make(chan error, 1)
	go func() { serveErr <- ServeListenerUntil(l, srv, 5*time.Second, stop) }()
	base := "http://" + l.Addr().String()

	// The server answers liveness probes under load.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Put three requests in flight, then signal shutdown.
	const inFlight = 3
	var wg sync.WaitGroup
	bodies := make([]string, inFlight)
	errs := make([]error, inFlight)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(base + "/work")
			if err != nil {
				errs[i] = err
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			bodies[i] = string(b)
		}(i)
	}
	for i := 0; i < inFlight; i++ {
		<-started
	}
	close(stop)
	// Give Shutdown a moment to close the listener, then release handlers.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("ServeListenerUntil = %v, want clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not stop after drain")
	}
	for i := 0; i < inFlight; i++ {
		if errs[i] != nil || bodies[i] != "done" {
			t.Fatalf("in-flight request %d: body=%q err=%v", i, bodies[i], errs[i])
		}
	}
	// New connections are refused after shutdown.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestShutdownTimeoutForcesClose: a handler that never finishes cannot hold
// shutdown hostage past the budget.
func TestShutdownTimeoutForcesClose(t *testing.T) {
	started := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-r.Context().Done() // hangs until the connection is force-closed
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	stop := make(chan struct{})
	serveErr := make(chan error, 1)
	go func() { serveErr <- ServeListenerUntil(l, srv, 100*time.Millisecond, stop) }()

	go func() {
		resp, err := http.Get("http://" + l.Addr().String())
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	close(stop)
	select {
	case err := <-serveErr:
		if err == nil {
			t.Fatal("expected a shutdown-timeout error for the stuck handler")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not force-close the stuck connection")
	}
}

// TestPanicTriggersFlightBundle: a recovered handler panic is a hard
// anomaly — the flight recorder wired through Config.Flight captures a
// diagnostic bundle attributing the panicking request, and the server
// keeps serving afterwards.
func TestPanicTriggersFlightBundle(t *testing.T) {
	db, err := reldb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	dir := t.TempDir()
	fr := flight.New(flight.Config{
		Dir:         dir,
		Logger:      obs.NewLogger(io.Discard, obs.LevelError),
		MinInterval: -1,
	})
	defer fr.Close()
	s, err := NewServer(Config{
		DB: db, Logger: obs.NewLogger(io.Discard, obs.LevelError), Flight: fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.mux.HandleFunc("/test/panic", func(http.ResponseWriter, *http.Request) {
		panic("flight test panic")
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/test/panic")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	bdir := fr.LastBundleDir()
	if bdir == "" {
		t.Fatal("panic did not produce a flight bundle")
	}
	b, err := flight.ReadBundle(bdir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reason != flight.ReasonPanic || b.Details["path"] != "/test/panic" {
		t.Fatalf("bundle reason=%q details=%v", b.Reason, b.Details)
	}
	if !strings.Contains(b.Details["value"], "flight test panic") {
		t.Fatalf("panic value not attributed: %v", b.Details)
	}
	// The server keeps serving while bundles exist.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic = %d", resp.StatusCode)
	}
}

// TestSlowRequestsTripSLOBreach: requests slower than the SLO target,
// served through NewServer, fill the request-duration histogram that the
// recorder's SLO watchdog windows, and the tick that closes the window
// fires an slo_breach bundle. A server without a metrics registry has no
// histogram, so the same requests fire nothing.
func TestSlowRequestsTripSLOBreach(t *testing.T) {
	for _, withMetrics := range []bool{true, false} {
		db, err := reldb.Open("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		// Only this goroutine ticks the recorder, so its clock needs no lock.
		now := time.Unix(1700000000, 0)
		fr := flight.New(flight.Config{
			Dir:           t.TempDir(),
			Clock:         func() time.Time { return now },
			Logger:        obs.NewLogger(io.Discard, obs.LevelError),
			MinInterval:   -1,
			SLOTarget:     10 * time.Millisecond,
			SLOWindow:     10 * time.Second,
			SLOBreaches:   1,
			SLOMinSamples: 3,
		})
		t.Cleanup(fr.Close)
		cfg := Config{DB: db, Logger: obs.NewLogger(io.Discard, obs.LevelError), Flight: fr}
		if withMetrics {
			cfg.Metrics = obs.NewRegistry()
		}
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.mux.HandleFunc("/test/slow", func(http.ResponseWriter, *http.Request) {
			time.Sleep(30 * time.Millisecond)
		})
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)

		fr.Tick(now) // opens the window
		for i := 0; i < 3; i++ {
			resp, err := http.Get(ts.URL + "/test/slow")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		now = now.Add(10 * time.Second)
		fr.Tick(now)

		path := fr.LastBundleDir()
		if !withMetrics {
			if path != "" {
				t.Fatalf("without a registry the SLO watchdog fired: %s", path)
			}
			continue
		}
		if path == "" {
			t.Fatal("three 30 ms requests against a 10 ms p99 target fired no bundle")
		}
		b, err := flight.ReadBundle(path)
		if err != nil {
			t.Fatal(err)
		}
		if b.Reason != flight.ReasonSLOBreach || b.Details["target_seconds"] != "0.01" {
			t.Fatalf("bundle reason=%q details=%v", b.Reason, b.Details)
		}
	}
}
