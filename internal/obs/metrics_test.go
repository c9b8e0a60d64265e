package obs

import (
	"io"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPromExpositionGolden pins the full text exposition of a mixed
// registry byte for byte: family ordering is alphabetical, series
// ordering follows the rendered label set, histograms emit cumulative
// buckets plus _sum/_count — the format a Prometheus scraper parses.
func TestPromExpositionGolden(t *testing.T) {
	r := NewRegistry().WithClock(func() time.Time { return time.Unix(0, 0) })
	r.Counter("quest_http_requests_total", L("code", "200")).Add(3)
	r.Counter("quest_http_requests_total", L("code", "500")).Inc()
	r.Counter("qatk_pipeline_documents_total").Add(7)
	r.Gauge("build_info", L("version", "(devel)"), L("go_version", "go1.22")).Set(1)
	h := r.Histogram("quest_http_request_duration_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE build_info gauge
build_info{go_version="go1.22",version="(devel)"} 1
# TYPE obs_metric_series_dropped_total counter
obs_metric_series_dropped_total 0
# TYPE obs_scrape_seconds histogram
obs_scrape_seconds_bucket{le="1e-05"} 0
obs_scrape_seconds_bucket{le="0.0001"} 0
obs_scrape_seconds_bucket{le="0.001"} 0
obs_scrape_seconds_bucket{le="0.01"} 0
obs_scrape_seconds_bucket{le="0.1"} 0
obs_scrape_seconds_bucket{le="1"} 0
obs_scrape_seconds_bucket{le="+Inf"} 0
obs_scrape_seconds_sum 0
obs_scrape_seconds_count 0
# TYPE obs_scrape_total counter
obs_scrape_total 1
# TYPE qatk_pipeline_documents_total counter
qatk_pipeline_documents_total 7
# TYPE quest_http_request_duration_seconds histogram
quest_http_request_duration_seconds_bucket{le="0.1"} 1
quest_http_request_duration_seconds_bucket{le="1"} 2
quest_http_request_duration_seconds_bucket{le="+Inf"} 3
quest_http_request_duration_seconds_sum 2.55
quest_http_request_duration_seconds_count 3
# TYPE quest_http_requests_total counter
quest_http_requests_total{code="200"} 3
quest_http_requests_total{code="500"} 1
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", sb.String(), want)
	}
	// The exposition is deterministic across renders, apart from the
	// scrape self-instrumentation, which necessarily moves per render.
	var again strings.Builder
	if err := r.WriteProm(&again); err != nil {
		t.Fatal(err)
	}
	if got := stripScrapeLines(again.String()); got != stripScrapeLines(sb.String()) {
		t.Errorf("two renders of the same registry differ beyond scrape self-instrumentation:\n%s\nvs\n%s",
			got, stripScrapeLines(sb.String()))
	}
}

// stripScrapeLines removes the obs_scrape_* families from an exposition.
func stripScrapeLines(s string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if strings.Contains(line, "obs_scrape_") {
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}

// TestScrapeSelfInstrumentationGolden pins the second scrape of a fresh
// registry under a fixed clock: the first WriteProm incremented the
// counter and observed one zero-duration render, so the second exposition
// shows obs_scrape_total 2 and a one-observation histogram — the scrape
// cost made visible, deterministically, in a stable family order — beside
// the series-cap drop counter, pre-registered at zero.
func TestScrapeSelfInstrumentationGolden(t *testing.T) {
	r := NewRegistry().WithClock(func() time.Time { return time.Unix(0, 0) })
	if err := r.WriteProm(io.Discard); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE obs_metric_series_dropped_total counter
obs_metric_series_dropped_total 0
# TYPE obs_scrape_seconds histogram
obs_scrape_seconds_bucket{le="1e-05"} 1
obs_scrape_seconds_bucket{le="0.0001"} 1
obs_scrape_seconds_bucket{le="0.001"} 1
obs_scrape_seconds_bucket{le="0.01"} 1
obs_scrape_seconds_bucket{le="0.1"} 1
obs_scrape_seconds_bucket{le="1"} 1
obs_scrape_seconds_bucket{le="+Inf"} 1
obs_scrape_seconds_sum 0
obs_scrape_seconds_count 1
# TYPE obs_scrape_total counter
obs_scrape_total 2
`
	if sb.String() != want {
		t.Errorf("scrape self-instrumentation mismatch:\n got:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestHistogramBucketBoundaries: le is inclusive — an observation exactly
// on a bound lands in that bucket, one epsilon above falls through to the
// next, and values beyond the last bound land in the overflow bucket,
// which renders only as +Inf (the total count).
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("qatk_pipeline_engine_seconds", []float64{1, 2})
	h.Observe(1)   // exactly on the first bound → bucket le=1
	h.Observe(1.5) // → bucket le=2
	h.Observe(2)   // exactly on the second bound → bucket le=2
	h.Observe(3)   // beyond every bound → overflow, +Inf only

	if got, want := h.Buckets(), []uint64{1, 2, 1}; !slices.Equal(got, want) {
		t.Errorf("buckets = %v, want %v", got, want)
	}
	if got := h.Count(); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	if got := h.Sum(); got != 7.5 {
		t.Errorf("sum = %g, want 7.5", got)
	}
	// Rendered buckets are cumulative: 1, 3, 4.
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`qatk_pipeline_engine_seconds_bucket{le="1"} 1`,
		`qatk_pipeline_engine_seconds_bucket{le="2"} 3`,
		`qatk_pipeline_engine_seconds_bucket{le="+Inf"} 4`,
	} {
		if !strings.Contains(sb.String(), line) {
			t.Errorf("exposition missing %q:\n%s", line, sb.String())
		}
	}
}

// TestHistogramBucketsNeverDecrease: Buckets read while observations land,
// in range and past the last bound, never sees a bucket fall below an
// earlier read of it — the SLO watchdog diffs successive reads — and the
// final read accounts for every observation.
func TestHistogramBucketsNeverDecrease(t *testing.T) {
	const perWriter = 20000
	h := NewRegistry().Histogram("quest_http_request_duration_seconds", DefBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(0.002)
				h.Observe(60)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	prev := h.Buckets()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		now := h.Buckets()
		for i := range now {
			if now[i] < prev[i] {
				t.Fatalf("bucket %d fell from %d to %d", i, prev[i], now[i])
			}
		}
		prev = now
	}
	if got, want := prev[len(DefBuckets)], uint64(2*perWriter); got != want {
		t.Errorf("overflow bucket = %d, want %d", got, want)
	}
	if got, want := prev[1], uint64(2*perWriter); got != want {
		t.Errorf("bucket le=0.005 = %d, want %d", got, want)
	}
}

// TestDefBucketP99: the p99 rule the flight SLO watchdog and the request
// log's tail threshold share. A value on a bound lands in that bucket;
// the estimate is the bound of the first bucket covering 99% of counts,
// and overflow reports the last bound.
func TestDefBucketP99(t *testing.T) {
	fast, slow := DefBuckets[1], DefBuckets[5]
	if got := DefBucketIndex(fast); got != 1 {
		t.Errorf("DefBucketIndex(%g) = %d, want 1", fast, got)
	}
	if got := DefBucketIndex(fast + 1e-9); got != 2 {
		t.Errorf("DefBucketIndex just above %g = %d, want 2", fast, got)
	}
	last := DefBuckets[len(DefBuckets)-1]
	if got := DefBucketIndex(2 * last); got != len(DefBuckets) {
		t.Errorf("DefBucketIndex(%g) = %d, want overflow %d", 2*last, got, len(DefBuckets))
	}
	for _, c := range []struct {
		fast, slow uint64
		slowAt     float64
		want       float64
	}{
		{99, 1, slow, fast},
		{98, 2, slow, slow},
		{98, 2, 2 * last, last},
	} {
		counts := make([]uint64, len(DefBuckets)+1)
		counts[DefBucketIndex(fast)] += c.fast
		counts[DefBucketIndex(c.slowAt)] += c.slow
		if got := DefBucketP99(counts); got != c.want {
			t.Errorf("%d at %g + %d at %g: p99 = %g, want %g", c.fast, fast, c.slow, c.slowAt, got, c.want)
		}
	}
}

// TestNilRegistryIsNoOp: the disabled state hands out nil handles whose
// methods do nothing — the contract the pipeline hot path relies on.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("qatk_pipeline_documents_total")
	g := r.Gauge("quest_http_requests_inflight")
	h := r.Histogram("quest_http_request_duration_seconds", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned non-nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(-1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles accumulated state")
	}
	if err := r.WriteProm(io.Discard); err != nil {
		t.Errorf("nil registry WriteProm = %v", err)
	}
}

// TestKindClashYieldsNoOp: re-registering a name as a different kind must
// not panic (qatklint/paniccontract) — it yields a nil no-op handle and
// the original family survives.
func TestKindClashYieldsNoOp(t *testing.T) {
	r := NewRegistry()
	r.Counter("qatk_pipeline_documents_total").Add(2)
	if g := r.Gauge("qatk_pipeline_documents_total"); g != nil {
		t.Error("kind clash returned a live gauge")
	}
	if got := r.Counter("qatk_pipeline_documents_total").Value(); got != 2 {
		t.Errorf("original counter lost: %d", got)
	}
}

// TestCounterConcurrency: handles are safe without external locking.
func TestCounterConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("qatk_pipeline_documents_total")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("count = %d, want 8000", got)
	}
}

// TestScrapeDuringSeriesCreation: a /metrics render concurrent with
// first-use series creation must be race-free — WriteProm snapshots each
// family's series under the registry lock instead of walking the live
// maps lookup mutates. Run under -race this is the regression test for
// the concurrent map read/write crash. Each writer creates a bounded
// number of new series, so the scrapes render a registry of bounded size.
func TestScrapeDuringSeriesCreation(t *testing.T) {
	const perWriter = 200
	r := NewRegistry()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < perWriter; i++ {
			r.Counter("quest_http_requests_total", L("code", strconv.Itoa(i))).Inc()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < perWriter; i++ {
			r.Histogram("quest_http_request_duration_seconds", nil, L("route", strconv.Itoa(i))).Observe(0.1)
		}
	}()
	for i := 0; i < 100; i++ {
		if err := r.WriteProm(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "quest_http_requests_total{"); got != perWriter {
		t.Fatalf("rendered %d counter series, want %d", got, perWriter)
	}
}

// TestSeriesCapPerFamily: a family records at most MaxSeriesPerFamily
// label sets. Past the cap a new label set gets the no-op handle and
// counts in obs_metric_series_dropped_total, while the series recorded
// before the cap keep counting and other families are unaffected.
func TestSeriesCapPerFamily(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < MaxSeriesPerFamily; i++ {
		if c := r.Counter("quest_http_requests_total", L("code", strconv.Itoa(i))); c == nil {
			t.Fatalf("series %d under the cap was refused", i)
		}
	}
	const over = 7
	for i := 0; i < over; i++ {
		c := r.Counter("quest_http_requests_total", L("code", "over"+strconv.Itoa(i)))
		if c != nil {
			t.Fatalf("series past the cap was recorded")
		}
		c.Inc() // the no-op handle is safe to use
	}
	if got := r.Counter(MetricSeriesDroppedTotal).Value(); got != over {
		t.Fatalf("%s = %d, want %d", MetricSeriesDroppedTotal, got, over)
	}
	r.Counter("quest_http_requests_total", L("code", "0")).Add(3)
	if got := r.Counter("quest_http_requests_total", L("code", "0")).Value(); got != 3 {
		t.Fatalf("existing series past the cap = %d, want 3", got)
	}
	if r.Gauge("quest_shard_queries_inflight", L("shard", "0")) == nil {
		t.Fatal("a full family capped another family")
	}

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := strings.Count(out, "quest_http_requests_total{"); got != MaxSeriesPerFamily {
		t.Fatalf("rendered %d series of the capped family, want %d", got, MaxSeriesPerFamily)
	}
	if !strings.Contains(out, MetricSeriesDroppedTotal+" 7\n") {
		t.Fatalf("exposition lacks the drop count:\n%s", out[:min(len(out), 400)])
	}
}

// TestHistogramBucketsFixedByFamily: bucket bounds are set by the first
// registration of a family; a later caller asking for different bounds
// (even for a brand-new label set) gets series built from the original
// bounds, so one exposition family never mixes le sets.
func TestHistogramBucketsFixedByFamily(t *testing.T) {
	r := NewRegistry()
	first := r.Histogram("qatk_pipeline_engine_seconds", []float64{1, 2}, L("engine", "tok"))
	first.Observe(1.5)
	second := r.Histogram("qatk_pipeline_engine_seconds", []float64{5, 10, 20}, L("engine", "ner"))
	second.Observe(1.5)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		`qatk_pipeline_engine_seconds_bucket{engine="ner",le="1"} 0`,
		`qatk_pipeline_engine_seconds_bucket{engine="ner",le="2"} 1`,
		`qatk_pipeline_engine_seconds_bucket{engine="tok",le="2"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, `le="5"`) || strings.Contains(got, `le="10"`) {
		t.Errorf("later caller's divergent buckets leaked into the family:\n%s", got)
	}
}

// TestHandlerServesExposition: the HTTP handler answers with the text
// exposition content type and body.
func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("quest_http_requests_total").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "quest_http_requests_total 1") {
		t.Errorf("body = %q", rec.Body.String())
	}
}
