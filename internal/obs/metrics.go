package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics: counters, gauges and fixed-bucket histograms, exposed in the
// Prometheus text exposition format (version 0.0.4). The registry hands
// out typed handles; all mutation goes through atomic operations so the
// handles are safe for concurrent use without locking, and a nil registry
// (observability disabled) yields nil handles whose methods are no-ops.

// metricKind distinguishes the three exposition families.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// DefBuckets are the default histogram buckets for request latencies in
// seconds, spanning sub-millisecond handlers to multi-second stragglers.
var DefBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// DefBucketIndex returns the DefBuckets bucket that counts an observation
// of seconds: the first bound at or above it (le is inclusive, as in
// Histogram.Observe), or len(DefBuckets) for the overflow bucket.
func DefBucketIndex(seconds float64) int {
	for i, b := range DefBuckets {
		if seconds <= b {
			return i
		}
	}
	return len(DefBuckets)
}

// DefBucketP99 estimates the 99th percentile of per-bucket counts indexed
// by DefBucketIndex (len(DefBuckets)+1 of them): the upper bound of the
// first bucket whose cumulative count covers it. Observations beyond the
// last bound report the last bound ("at least").
func DefBucketP99(counts []uint64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	need := (99*total + 99) / 100
	var cum uint64
	for i, c := range counts[:len(DefBuckets)] {
		cum += c
		if cum >= need {
			return DefBuckets[i]
		}
	}
	return DefBuckets[len(DefBuckets)-1]
}

// Scrape self-instrumentation: every WriteProm pass counts itself and
// observes its own rendering cost, so the price of the exposition is
// visible in the exposition. The histogram is observed after the render
// completes, so one scrape reports the cost of its predecessors.
const (
	// MetricScrapeTotal counts WriteProm passes (scrapes), including the
	// one being rendered.
	MetricScrapeTotal = "obs_scrape_total"
	// MetricScrapeSeconds observes the wall-clock cost of each completed
	// WriteProm pass.
	MetricScrapeSeconds = "obs_scrape_seconds"
)

// MaxSeriesPerFamily bounds the label sets one metric family records. A
// label fed from request data (a route, a part ID, a status) would
// otherwise grow the registry, and every scrape's rendering, without
// limit. Lookups of a new label set past the cap get the nil (no-op)
// handle and count in MetricSeriesDroppedTotal; series created before
// the cap keep recording.
const MaxSeriesPerFamily = 1024

// MetricSeriesDroppedTotal counts lookups of a new label set that a
// family at MaxSeriesPerFamily refused to record.
const MetricSeriesDroppedTotal = "obs_metric_series_dropped_total"

// ScrapeBuckets are the histogram bounds for exposition rendering cost:
// scrapes are fast, so the buckets start at 10µs.
var ScrapeBuckets = []float64{0.00001, 0.0001, 0.001, 0.01, 0.1, 1}

// Registry holds metric families keyed by name. The zero value is not
// usable; call NewRegistry. A nil *Registry is the sanctioned "disabled"
// state: every lookup returns a nil handle.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family //qatk:guardedby mu
	clock    func() time.Time
	dropped  *Counter // MetricSeriesDroppedTotal
}

// family is one named metric with its labeled series.
type family struct {
	name    string
	kind    metricKind
	buckets []float64 // histograms only; ascending upper bounds
	series  map[string]any
}

// NewRegistry builds a metrics registry. The scrape self-instrumentation
// and series-cap families are pre-registered so they render (at zero)
// from the first exposition on.
func NewRegistry() *Registry {
	r := &Registry{families: make(map[string]*family), clock: time.Now}
	r.dropped = r.Counter(MetricSeriesDroppedTotal)
	r.Counter(MetricScrapeTotal)
	r.Histogram(MetricScrapeSeconds, ScrapeBuckets)
	return r
}

// WithClock injects the time source used to cost scrapes (a test seam;
// default time.Now) and returns the registry.
func (r *Registry) WithClock(clock func() time.Time) *Registry {
	if r == nil || clock == nil {
		return r
	}
	r.mu.Lock()
	r.clock = clock
	r.mu.Unlock()
	return r
}

// now reads the registry clock.
func (r *Registry) now() time.Time {
	r.mu.Lock()
	c := r.clock
	r.mu.Unlock()
	return c()
}

// renderLabels serializes labels sorted by key into the inner exposition
// form `k1="v1",k2="v2"` ("" for no labels). The rendered string doubles
// as the series identity.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	return b.String()
}

// lookup returns (creating if needed) the series for name+labels, or nil
// when the registry is nil, the name is already registered with a
// different kind (misregistration must not panic; qatklint/paniccontract
// confines panics to the pipeline recovery layer), or the label set is
// new to a family already holding MaxSeriesPerFamily series. New series
// are built from the family's bounds (fixed by its first registration) so
// every series of one histogram family shares a single le set.
func (r *Registry) lookup(name string, kind metricKind, buckets []float64, labels []Label, make func(bounds []float64) any) any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, buckets: buckets, series: map[string]any{}}
		r.families[name] = f
	}
	if f.kind != kind {
		return nil
	}
	sig := renderLabels(labels)
	s, ok := f.series[sig]
	if !ok {
		if len(f.series) >= MaxSeriesPerFamily {
			r.dropped.Inc()
			return nil
		}
		s = make(f.buckets)
		f.series[sig] = s
	}
	return s
}

// Counter is a monotonically increasing count. A nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Counter returns the counter series for name+labels, registering it on
// first use. Nil registry or a kind clash yields a nil (no-op) handle.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	s, _ := r.lookup(name, kindCounter, nil, labels, func([]float64) any { return new(Counter) }).(*Counter)
	return s
}

// Inc adds one.
//
//qatk:hotpath
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
//
//qatk:hotpath
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. A nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Gauge returns the gauge series for name+labels, registering it on first
// use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	s, _ := r.lookup(name, kindGauge, nil, labels, func([]float64) any { return new(Gauge) }).(*Gauge)
	return s
}

// Set stores v.
//
//qatk:hotpath
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by delta (negative deltas decrement).
//
//qatk:hotpath
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed cumulative buckets. A nil
// *Histogram is a no-op.
type Histogram struct {
	bounds    []float64       // ascending upper bounds (le); +Inf implicit
	counts    []atomic.Uint64 // one slot per bucket + the +Inf overflow
	sumBits   atomic.Uint64
	count     atomic.Uint64
	exemplars []atomic.Pointer[exemplar] // one slot per bucket + the +Inf overflow
}

// exemplar is one traced observation pinned to a histogram bucket, in the
// OpenMetrics sense: the observed value, the trace that produced it, and
// when. Buckets keep only the most recent exemplar.
type exemplar struct {
	value   float64
	traceID string
	ts      time.Time
}

// Histogram returns the histogram series for name+labels with the given
// ascending bucket upper bounds (nil means DefBuckets), registering it on
// first use. Bounds are fixed by the first registration of the family.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	s, _ := r.lookup(name, kindHistogram, buckets, labels, func(bounds []float64) any {
		return &Histogram{
			bounds:    bounds,
			counts:    make([]atomic.Uint64, len(bounds)+1),
			exemplars: make([]atomic.Pointer[exemplar], len(bounds)+1),
		}
	}).(*Histogram)
	return s
}

// Observe records one observation. A value exactly on a bucket's upper
// bound counts into that bucket (le is inclusive, as in Prometheus).
//
//qatk:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucket(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Exemplar pins a traced observation to the bucket covering v, replacing
// any previous exemplar there. The bucket line then carries an
// OpenMetrics exemplar (`# {trace_id="..."} value timestamp`) so a scrape
// links the latency distribution back to a concrete retained trace.
// Callers gate this on their own opt-in flag; the histogram itself stays
// format-compatible when no exemplar was ever recorded.
func (h *Histogram) Exemplar(v float64, traceID string, ts time.Time) {
	if h == nil || traceID == "" {
		return
	}
	h.exemplars[h.bucket(v)].Store(&exemplar{value: v, traceID: traceID, ts: ts})
}

// bucket returns the slot that counts v: the first bound at or above it,
// or len(bounds), the +Inf overflow slot.
func (h *Histogram) bucket(v float64) int {
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds)
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets reads the per-bucket counts, one per bound plus the overflow
// bucket beyond the last: the differences of WriteProm's cumulative bucket
// lines. Each count only grows, so successive reads never decrease.
func (h *Histogram) Buckets() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// formatFloat renders a float the way the Prometheus text format expects
// (shortest round-trip representation; integers print without a dot).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// famSnapshot is one family's render view: its series handles copied out
// under the registry lock so rendering never reads the live series maps
// (which Registry.lookup mutates under the same lock).
type famSnapshot struct {
	name   string
	kind   metricKind
	sigs   []string // sorted rendered label sets
	series []any    // handle per sig, same order
}

// value is one exposition sample's value: exact when it counts (counters,
// histogram buckets and _count), a float otherwise (gauges and _sum).
type value struct {
	n       uint64
	f       float64
	isCount bool
}

func countValue(n uint64) value { return value{n: n, isCount: true} }

// String renders the value as the text format writes it.
func (v value) String() string {
	if v.isCount {
		return strconv.FormatUint(v.n, 10)
	}
	return formatFloat(v.f)
}

func (v value) float() float64 {
	if v.isCount {
		return float64(v.n)
	}
	return v.f
}

// walk visits every registered family in exposition order, families sorted
// by name and series by their rendered label set. It calls family (when
// non-nil) once per family and sample once per exposition line, with the
// line's series key name{labels}, its value and, on a histogram bucket, the
// bucket's exemplar (nil when it has none). WriteProm renders from it and
// Series reads from it, so the two cannot disagree on a series name.
func (r *Registry) walk(family func(name string, kind metricKind) error, sample func(key string, v value, ex *exemplar) error) error {
	if r == nil {
		return nil
	}
	// Snapshot family names, series sigs and handle pointers under the
	// lock; the atomic series values are then read lock-free, so a walk
	// concurrent with first-use series creation is race-free.
	r.mu.Lock()
	snaps := make([]famSnapshot, 0, len(r.families))
	for _, f := range r.families {
		snap := famSnapshot{name: f.name, kind: f.kind, sigs: make([]string, 0, len(f.series))}
		for sig := range f.series {
			snap.sigs = append(snap.sigs, sig)
		}
		sort.Strings(snap.sigs)
		snap.series = make([]any, len(snap.sigs))
		for i, sig := range snap.sigs {
			snap.series[i] = f.series[sig]
		}
		snaps = append(snaps, snap)
	}
	r.mu.Unlock()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].name < snaps[j].name })

	for _, f := range snaps {
		if family != nil {
			if err := family(f.name, f.kind); err != nil {
				return err
			}
		}
		for i, sig := range f.sigs {
			if err := walkSeries(f.name, sig, f.series[i], sample); err != nil {
				return err
			}
		}
	}
	return nil
}

// walkSeries visits the exposition lines of one labeled series of a family.
func walkSeries(name, sig string, series any, sample func(key string, v value, ex *exemplar) error) error {
	switch s := series.(type) {
	case *Counter:
		return sample(name+braced(sig), countValue(s.Value()), nil)
	case *Gauge:
		return sample(name+braced(sig), value{f: s.Value()}, nil)
	case *Histogram:
		cumulative := uint64(0)
		for i, b := range s.bounds {
			cumulative += s.counts[i].Load()
			le := L("le", formatFloat(b))
			if err := sample(name+"_bucket"+braced(joinSig(sig, le)), countValue(cumulative), s.exemplars[i].Load()); err != nil {
				return err
			}
		}
		// Observe bumps the matched bucket before the total count, so a
		// concurrent walk can see cumulative > Count(); clamp the +Inf
		// bucket and _count to the same value to keep the rendered
		// histogram monotonic (+Inf bucket == _count always holds).
		cumulative += s.counts[len(s.bounds)].Load()
		count := max(s.Count(), cumulative)
		if err := sample(name+"_bucket"+braced(joinSig(sig, L("le", "+Inf"))), countValue(count), s.exemplars[len(s.bounds)].Load()); err != nil {
			return err
		}
		if err := sample(name+"_sum"+braced(sig), value{f: s.Sum()}, nil); err != nil {
			return err
		}
		return sample(name+"_count"+braced(sig), countValue(count), nil)
	}
	return nil
}

// WriteProm renders every registered family in the Prometheus text
// exposition format, deterministically ordered: families sorted by name,
// series sorted by their rendered label set.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Self-instrumentation: the counter is bumped before the walk so the
	// rendered exposition includes the scrape reading it; the duration is
	// observed after rendering, so each scrape reports the cost of the
	// ones before it.
	start := r.now()
	r.Counter(MetricScrapeTotal).Inc()
	defer func() {
		r.Histogram(MetricScrapeSeconds, ScrapeBuckets).Observe(r.now().Sub(start).Seconds())
	}()
	return r.walk(func(name string, kind metricKind) error {
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		return err
	}, func(key string, v value, ex *exemplar) error {
		_, err := fmt.Fprintf(w, "%s %s%s\n", key, v, exemplarSuffix(ex))
		return err
	})
}

// Series reads the value of every line WriteProm would render, keyed by
// its series name{labels} without the exemplar a bucket line may carry.
// Unlike WriteProm it is not a scrape: it counts nothing.
func (r *Registry) Series() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	_ = r.walk(nil, func(key string, v value, _ *exemplar) error {
		out[key] = v.float()
		return nil
	})
	return out
}

// exemplarSuffix renders the OpenMetrics exemplar annotation of one bucket
// line, or "" when the bucket has none. Timestamps render as seconds with
// millisecond precision, per the OpenMetrics text format.
func exemplarSuffix(e *exemplar) string {
	if e == nil {
		return ""
	}
	ts := float64(e.ts.UnixMilli()) / 1000
	return fmt.Sprintf(" # {trace_id=%q} %s %s", e.traceID, formatFloat(e.value), strconv.FormatFloat(ts, 'f', 3, 64))
}

// braced wraps a non-empty rendered label set in {…}.
func braced(sig string) string {
	if sig == "" {
		return ""
	}
	return "{" + sig + "}"
}

// joinSig appends one more label to a rendered label set.
func joinSig(sig string, l Label) string {
	extra := l.Key + "=" + strconv.Quote(l.Value)
	if sig == "" {
		return extra
	}
	return sig + "," + extra
}

// Handler serves the exposition at an HTTP endpoint (mounted as /metrics
// on the questd probe mux).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteProm(w)
	})
}
