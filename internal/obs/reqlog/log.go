package reqlog

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Metric names the request log emits (qatklint/metricname: package-level
// constants, snake_case, subsystem prefix, unit suffix).
const (
	// MetricReqObservedTotal counts every finished wide event, retained
	// or not.
	MetricReqObservedTotal = "obs_req_observed_total"
	// MetricReqRetainedTotal counts events the tail sampler kept, by
	// retention reason (label "reason"; an event retained for several
	// reasons counts once per reason).
	MetricReqRetainedTotal = "obs_req_retained_total"
	// MetricReqDroppedTotal counts events observed but not retained.
	MetricReqDroppedTotal = "obs_req_dropped_total"
	// MetricReqTailThresholdSeconds gauges the rolling latency threshold
	// above which an event is retained as slow.
	MetricReqTailThresholdSeconds = "obs_req_tail_threshold_seconds"
)

// Retention reasons, as recorded in Event.Reasons and the reason label.
const (
	ReasonAlways   = "always"
	ReasonHead     = "head_sample"
	ReasonSlow     = "slow"
	ReasonDegraded = "degraded"
	ReasonHedged   = "hedged"
	ReasonStatus   = "status"
	ReasonPanic    = "panic"
	ReasonBreaker  = "breaker"
)

// Reasons lists every retention reason in evaluation order.
var Reasons = []string{
	ReasonAlways, ReasonHead, ReasonSlow, ReasonDegraded,
	ReasonHedged, ReasonStatus, ReasonPanic, ReasonBreaker,
}

// Defaults for zero Config fields.
const (
	// DefaultCapacity is the retained-event ring size.
	DefaultCapacity = 256
	// DefaultTailFactor multiplies the rolling p99 estimate into the
	// slow-retention threshold: an event is slow when it exceeds twice
	// the recent p99 bucket bound.
	DefaultTailFactor = 2.0
	// DefaultMinCount is how many latency observations the rolling
	// window needs before the slow threshold engages (a cold sampler
	// retaining everything as "slow" would flood the ring at startup).
	DefaultMinCount = 64
	// decayEvery halves the rolling latency window once this many
	// observations accumulate, so the p99 estimate tracks the recent
	// past instead of the process lifetime.
	decayEvery = 4096
)

// Config wires a Log.
type Config struct {
	// Capacity bounds the retained-event ring (default 256).
	Capacity int
	// SampleAll retains every event (the debugging escape hatch).
	SampleAll bool
	// HeadEvery head-samples one event in every N regardless of the tail
	// rules, so the ring always carries a baseline of ordinary requests.
	// 0 disables head sampling.
	HeadEvery int
	// TailFactor scales the rolling p99 estimate into the slow-retention
	// threshold (default 2.0). MinCount is how many observations the
	// window needs before the threshold engages (default 64).
	TailFactor float64
	MinCount   int
	// Registry receives the obs_req_* families. Nil disables metrics.
	Registry *obs.Registry
	// Clock is the injected time source (default time.Now).
	Clock func() time.Time
}

// Log is the tail-sampled wide-event store. A nil *Log is disabled:
// Begin returns a nil builder and every method is a no-op.
type Log struct {
	cfg   Config
	clock func() time.Time

	observed  *obs.Counter
	dropped   *obs.Counter
	threshold *obs.Gauge
	retained  map[string]*obs.Counter

	mu          sync.Mutex
	ring        []Event           //qatk:guardedby mu
	next, count int               //qatk:guardedby mu
	seen        uint64            //qatk:guardedby mu — finished events, for head sampling
	latCounts   []uint64          //qatk:guardedby mu — rolling latency window (DefBuckets + overflow)
	latTotal    int               //qatk:guardedby mu
	thresholdNs int64             //qatk:guardedby mu — 0 until the window has MinCount observations
	stageNanos  [numStages]int64  //qatk:guardedby mu — totals across every finished event
	stageCounts [numStages]uint64 //qatk:guardedby mu
}

// New builds a request log. Zero Config fields take the package
// defaults.
func New(cfg Config) *Log {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.TailFactor <= 0 {
		cfg.TailFactor = DefaultTailFactor
	}
	if cfg.MinCount <= 0 {
		cfg.MinCount = DefaultMinCount
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	l := &Log{
		cfg:       cfg,
		clock:     cfg.Clock,
		observed:  cfg.Registry.Counter(MetricReqObservedTotal),
		dropped:   cfg.Registry.Counter(MetricReqDroppedTotal),
		threshold: cfg.Registry.Gauge(MetricReqTailThresholdSeconds),
		retained:  make(map[string]*obs.Counter, len(Reasons)),
		ring:      make([]Event, cfg.Capacity),
		latCounts: make([]uint64, len(obs.DefBuckets)+1),
	}
	for _, reason := range Reasons {
		l.retained[reason] = cfg.Registry.Counter(MetricReqRetainedTotal, obs.L("reason", reason))
	}
	return l
}

// Begin opens the wide event for one request. A nil log returns a nil
// builder, which every downstream recording call tolerates.
func (l *Log) Begin(method, route string) *Builder {
	if l == nil {
		return nil
	}
	b := &Builder{log: l, start: l.clock()}
	b.clock.now = l.clock
	b.mu.Lock()
	b.method, b.route = method, route
	b.mu.Unlock()
	return b
}

// finish runs the tail sampler over one sealed event: updates the
// rolling latency window and stage aggregates, decides retention, and
// pushes retained events into the ring. Reports whether the event was
// retained.
func (l *Log) finish(ev Event) bool {
	if l == nil {
		return false
	}
	l.observed.Inc()

	l.mu.Lock()
	l.seen++
	head := l.cfg.HeadEvery > 0 && (l.seen-1)%uint64(l.cfg.HeadEvery) == 0
	for _, st := range ev.Stages {
		for i := Stage(0); i < numStages; i++ {
			if st.Name == stageNames[i] {
				l.stageNanos[i] += st.Duration.Nanoseconds()
				l.stageCounts[i]++
				break
			}
		}
	}
	slowThreshold := time.Duration(l.thresholdNs)
	l.observeLatencyLocked(ev.Duration)

	ev.Reasons = retentionReasons(ev, l.cfg.SampleAll, head, slowThreshold)
	kept := len(ev.Reasons) > 0
	if kept {
		l.ring[l.next] = ev
		l.next = (l.next + 1) % len(l.ring)
		if l.count < len(l.ring) {
			l.count++
		}
	}
	l.mu.Unlock()

	if !kept {
		l.dropped.Inc()
		return false
	}
	for _, reason := range ev.Reasons {
		l.retained[reason].Inc()
	}
	return true
}

// retentionReasons evaluates the sampling rules against one event. The
// slow rule only engages once the rolling window produced a threshold.
func retentionReasons(ev Event, all, head bool, slow time.Duration) []string {
	var out []string
	if all {
		out = append(out, ReasonAlways)
	}
	if head {
		out = append(out, ReasonHead)
	}
	if slow > 0 && ev.Duration > slow {
		out = append(out, ReasonSlow)
	}
	if ev.Degraded || len(ev.FailedShards) > 0 {
		out = append(out, ReasonDegraded)
	}
	if ev.Hedged {
		out = append(out, ReasonHedged)
	}
	if ev.Status < 200 || ev.Status >= 300 {
		out = append(out, ReasonStatus)
	}
	if ev.Panic != "" {
		out = append(out, ReasonPanic)
	}
	if len(ev.BreakerTrips) > 0 {
		out = append(out, ReasonBreaker)
	}
	return out
}

// observeLatencyLocked feeds one request latency into the rolling window
// and recomputes the slow threshold: the upper bound of the bucket
// covering the 99th percentile, scaled by TailFactor. Caller holds l.mu.
func (l *Log) observeLatencyLocked(d time.Duration) {
	l.latCounts[obs.DefBucketIndex(d.Seconds())]++
	l.latTotal++
	if l.latTotal >= decayEvery {
		total := 0
		for j := range l.latCounts {
			l.latCounts[j] /= 2
			total += int(l.latCounts[j])
		}
		l.latTotal = total
	}
	if l.latTotal < l.cfg.MinCount {
		return
	}
	threshold := time.Duration(obs.DefBucketP99(l.latCounts) * l.cfg.TailFactor * float64(time.Second))
	l.thresholdNs = threshold.Nanoseconds()
	l.threshold.Set(threshold.Seconds())
}

// Threshold reports the current slow-retention threshold (0 while the
// rolling window is still filling).
func (l *Log) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return time.Duration(l.thresholdNs)
}

// Snapshot returns the retained events, newest first.
func (l *Log) Snapshot() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.count)
	for i := 1; i <= l.count; i++ {
		out = append(out, l.ring[(l.next-i+len(l.ring))%len(l.ring)])
	}
	return out
}

// StageTotal is one stage's aggregate over every finished event (not
// just the retained ones) — the per-stage breakdown cmd/loadgen reports.
type StageTotal struct {
	Name  string
	Count uint64
	Total time.Duration
}

// StageTotals reports the per-stage aggregates in serving-path order,
// skipping stages that never ran.
func (l *Log) StageTotals() []StageTotal {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []StageTotal
	for i := Stage(0); i < numStages; i++ {
		if l.stageCounts[i] > 0 {
			out = append(out, StageTotal{
				Name:  i.String(),
				Count: l.stageCounts[i],
				Total: time.Duration(l.stageNanos[i]),
			})
		}
	}
	return out
}
