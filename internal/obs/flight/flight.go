// Package flight is the QATK/QUEST black-box flight recorder: it
// continuously retains the recent past — trace spans (via the obs ring
// tracer), log lines (via the non-blocking obs.RingSink), and periodic
// metric-registry captures — and snapshots all of it into a diagnostic
// bundle the moment an anomaly fires, so an on-call engineer
// investigates the state *at the incident*, not a reconstruction.
//
// Triggers come in two kinds. Watchdogs evaluate on every Tick of an
// injected clock: an SLO watchdog that windows the QUEST serving path's
// request-duration histogram (p99 over budget for K consecutive windows),
// a stall detector over per-subsystem heartbeat Guards (no document or
// fold progress before a deadline), and a goroutine-count spike check.
// Hard events trigger directly from the subsystem that detects them:
// handler panic recovery (quest), the pipeline circuit breaker, and the
// reldb fsync-failure latch. Only triggers write bundles to disk; the
// debug handler (GET /debug/bundle) assembles the same bundle in memory
// for one response and leaves the flight directory, the counters and the
// metric history as they were.
//
// Everything is nil-safe: a nil *Recorder (recording disabled) makes
// every method — including Guard heartbeats on the pipeline hot path — a
// cheap no-op, mirroring the obs package contract.
package flight

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/reqlog"
)

// Metric names the flight recorder emits (qatklint/metricname: constants,
// snake_case, subsystem prefix, unit suffix). The quest_slo_* families
// describe the QUEST serving-path SLO the watchdog guards; they live here
// because the watchdog does.
const (
	// MetricFlightBundlesTotal counts written diagnostic bundles by
	// trigger reason (label "reason").
	MetricFlightBundlesTotal = "obs_flight_bundles_total"
	// MetricFlightSuppressedTotal counts triggers suppressed by the
	// minimum-interval rate limit.
	MetricFlightSuppressedTotal = "obs_flight_suppressed_total"
	// MetricLogDroppedTotal counts log lines the ring sink dropped from
	// the forward path because the underlying writer could not keep up.
	MetricLogDroppedTotal = "obs_log_dropped_total"
	// MetricSLOBreachesTotal counts sliding windows whose serving-path
	// p99 exceeded the budget.
	MetricSLOBreachesTotal = "quest_slo_breaches_total"
	// MetricSLOWindowP99Seconds gauges the most recent completed window's
	// estimated p99 latency.
	MetricSLOWindowP99Seconds = "quest_slo_window_p99_seconds"
)

// Trigger reasons, as recorded in bundle manifests and the reason label.
const (
	ReasonSLOBreach      = "slo_breach"
	ReasonStall          = "stall"
	ReasonPanic          = "panic"
	ReasonCircuitBreaker = "circuit_breaker"
	ReasonFsyncLatch     = "fsync_latch"
	ReasonGoroutineSpike = "goroutine_spike"
	ReasonShardStall     = "shard_stall"
	ReasonReplicaLag     = "replica_lag"
	ReasonOnDemand       = "on_demand"
)

// DefaultReplicaLagTicks is how many consecutive watchdog passes a
// replica must breach its apply-lag bound before the hard trigger fires
// (WatchReplicaLag with ticks <= 0).
const DefaultReplicaLagTicks = 3

// Defaults for zero Config fields.
const (
	DefaultSLOWindow      = 10 * time.Second
	DefaultSLOBreaches    = 3
	DefaultSLOMinSamples  = 10
	DefaultStallDeadline  = 2 * time.Minute
	DefaultGoroutineLimit = 5000
	DefaultMetricsHistory = 8
	DefaultMaxBundles     = 16
	DefaultMinInterval    = 30 * time.Second
)

// LogLines caps the log tail a bundle carries; it also sizes the ring
// sink NewLogging builds.
const LogLines = 200

// Config wires a Recorder.
type Config struct {
	// Dir is where triggered bundles are written, one timestamped JSON
	// file each. Empty disables persistence: triggers still fire, log,
	// and count.
	Dir string
	// Clock is the injected time source (default time.Now). Every
	// watchdog decision reads it, so tests are deterministic.
	Clock func() time.Time

	// Sources. Any of them may be nil; the bundle simply omits that
	// section.
	Registry *obs.Registry
	Tracer   *obs.Tracer
	Logs     *obs.RingSink
	// Requests is the tail-sampled wide-event log; a capture freezes its
	// retained ring into the bundle's requests section.
	Requests *reqlog.Log
	// Profiles is the continuous profiler; a capture freezes its
	// snapshot ring into the bundle's profiles section, and breach-window
	// triggers (SLO breach, stall, breaker trip, shard stall, replica
	// lag) add a fresh CPU capture of the incident window.
	Profiles *prof.Sampler
	// Logger receives the recorder's own events (bundle written, trigger
	// suppressed). Nil disables them.
	Logger *obs.Logger

	// SLOTarget is the serving-path p99 latency budget; 0 disables the
	// SLO watchdog, which also needs a histogram from WatchLatency.
	// SLOWindow is the window length, SLOBreaches the number of
	// consecutive over-budget windows that trigger, and SLOMinSamples the
	// observations a window needs before it is judged (quiet windows
	// neither breach nor reset the streak).
	SLOTarget     time.Duration
	SLOWindow     time.Duration
	SLOBreaches   int
	SLOMinSamples int

	// StallDeadline is how long a Guard may go without a heartbeat before
	// the stall trigger fires (default 2m).
	StallDeadline time.Duration

	// GoroutineLimit triggers when the process goroutine count reaches
	// it: 0 means DefaultGoroutineLimit, negative disables. Goroutines
	// injects the counter (default runtime.NumGoroutine).
	GoroutineLimit int
	Goroutines     func() int

	// MetricsHistory bounds the ring of periodic registry captures a
	// bundle carries; MaxBundles bounds flight-directory retention
	// (oldest deleted first); MinInterval rate-limits triggered bundles.
	MetricsHistory int
	MaxBundles     int
	MinInterval    time.Duration
}

// Recorder is the flight recorder. A nil *Recorder is disabled and every
// method is a no-op.
type Recorder struct {
	cfg        Config
	clock      func() time.Time
	goroutines func() int
	log        *obs.Logger

	bundlesByReason func(reason string) *obs.Counter
	suppressed      *obs.Counter
	sloBreaches     *obs.Counter
	sloP99          *obs.Gauge

	// writeMu runs the triggers that pass the rate limit one at a time:
	// capture, profile freeze, bundle write and pruning. So a prune never
	// removes a bundle that another trigger is still writing, and lastPath
	// follows capture order. It is taken before mu, and only by Trigger.
	writeMu sync.Mutex

	mu          sync.Mutex
	metricHist  []MetricCapture
	guards      map[*Guard]struct{}
	infos       []infoProvider
	lagWatches  []*replicaLagWatch
	lastAuto    time.Time
	lastPath    string
	goroLatched bool
	// The SLO window: the histogram WatchLatency registered, its bucket
	// counts when the current window opened, when that was, and the run
	// of consecutive over-budget windows.
	sloHist   *obs.Histogram
	sloBase   []uint64
	sloStart  time.Time
	sloStreak int

	watchOnce sync.Once
	closeOnce sync.Once
	quit      chan struct{}
	done      chan struct{}
}

// infoProvider is one registered extra-state source.
type infoProvider struct {
	name string
	fn   func() map[string]string
}

// New builds a Recorder. Zero Config fields take the package defaults.
func New(cfg Config) *Recorder {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Goroutines == nil {
		cfg.Goroutines = runtime.NumGoroutine
	}
	if cfg.SLOWindow <= 0 {
		cfg.SLOWindow = DefaultSLOWindow
	}
	if cfg.SLOBreaches <= 0 {
		cfg.SLOBreaches = DefaultSLOBreaches
	}
	if cfg.SLOMinSamples <= 0 {
		cfg.SLOMinSamples = DefaultSLOMinSamples
	}
	if cfg.StallDeadline <= 0 {
		cfg.StallDeadline = DefaultStallDeadline
	}
	if cfg.GoroutineLimit == 0 {
		cfg.GoroutineLimit = DefaultGoroutineLimit
	}
	if cfg.MetricsHistory <= 0 {
		cfg.MetricsHistory = DefaultMetricsHistory
	}
	if cfg.MaxBundles <= 0 {
		cfg.MaxBundles = DefaultMaxBundles
	}
	if cfg.MinInterval < 0 {
		cfg.MinInterval = 0
	} else if cfg.MinInterval == 0 {
		cfg.MinInterval = DefaultMinInterval
	}
	r := &Recorder{
		cfg:        cfg,
		clock:      cfg.Clock,
		goroutines: cfg.Goroutines,
		log:        cfg.Logger,
		guards:     make(map[*Guard]struct{}),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	reg := cfg.Registry
	r.bundlesByReason = func(reason string) *obs.Counter {
		return reg.Counter(MetricFlightBundlesTotal, obs.L("reason", reason))
	}
	r.suppressed = reg.Counter(MetricFlightSuppressedTotal)
	if cfg.SLOTarget > 0 {
		r.sloBreaches = reg.Counter(MetricSLOBreachesTotal)
		r.sloP99 = reg.Gauge(MetricSLOWindowP99Seconds)
	}
	if cfg.Logs != nil {
		cfg.Logs.Instrument(reg.Counter(MetricLogDroppedTotal))
	}
	return r
}

// AddInfo registers an extra-state provider whose fields are embedded in
// every bundle under name (e.g. "reldb" → WAL/sync stats). fn runs at
// capture time and must be safe to call from any goroutine.
func (r *Recorder) AddInfo(name string, fn func() map[string]string) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.infos = append(r.infos, infoProvider{name: name, fn: fn})
	r.mu.Unlock()
}

// replicaLagWatch is one registered replication-lag watchdog; streak is
// guarded by the recorder's mu.
type replicaLagWatch struct {
	fn     func() (time.Duration, string)
	max    time.Duration
	ticks  int
	streak int
}

// WatchReplicaLag registers a replication-lag hard trigger: fn reports
// the worst apply lag across the replica set plus the lagging replica's
// ID, and when that lag exceeds max for `ticks` consecutive watchdog
// passes, a bundle fires with ReasonReplicaLag (streak resets after
// firing and on any within-bound pass, mirroring the SLO streak). Like
// AddInfo, registration happens after New — questd builds the recorder
// before its replicas exist. ticks <= 0 means DefaultReplicaLagTicks; a
// non-positive max disables the watch.
func (r *Recorder) WatchReplicaLag(fn func() (time.Duration, string), max time.Duration, ticks int) {
	if r == nil || fn == nil || max <= 0 {
		return
	}
	if ticks <= 0 {
		ticks = DefaultReplicaLagTicks
	}
	r.mu.Lock()
	r.lagWatches = append(r.lagWatches, &replicaLagWatch{fn: fn, max: max, ticks: ticks})
	r.mu.Unlock()
}

// --- SLO watchdog --------------------------------------------------------

// WatchLatency hands the SLO watchdog the serving path's request-duration
// histogram, which must have obs.DefBuckets bounds. Each window's p99 is
// read off the observations the histogram gained since the window opened,
// so the serving path records each latency once, in that histogram. Like
// WatchReplicaLag, registration happens after New: quest.NewServer owns
// the histogram. A nil histogram or a zero SLOTarget leaves the watchdog
// off.
func (r *Recorder) WatchLatency(h *obs.Histogram) {
	if r == nil || h == nil || r.cfg.SLOTarget <= 0 {
		return
	}
	r.mu.Lock()
	r.sloHist, r.sloBase = h, h.Buckets()
	r.mu.Unlock()
}

// sloPassLocked runs the SLO watchdog's part of a Tick: once a window has
// run its course it judges the observations the window gained, and it
// returns the trigger details when the breach streak reaches SLOBreaches.
// The first pass after WatchLatency opens the first window. Caller holds
// r.mu.
func (r *Recorder) sloPassLocked(now time.Time) []obs.Label {
	if r.sloHist == nil {
		return nil
	}
	if r.sloStart.IsZero() {
		r.sloStart = now
		return nil
	}
	if now.Sub(r.sloStart) < r.cfg.SLOWindow {
		return nil
	}
	counts := r.sloHist.Buckets()
	window := make([]uint64, len(counts))
	var total uint64
	for i, c := range counts {
		window[i] = c - r.sloBase[i]
		total += window[i]
	}
	r.sloBase, r.sloStart = counts, now
	if total < uint64(r.cfg.SLOMinSamples) {
		return nil
	}
	p99 := obs.DefBucketP99(window)
	r.sloP99.Set(p99)
	target := r.cfg.SLOTarget.Seconds()
	if p99 <= target {
		r.sloStreak = 0
		return nil
	}
	r.sloBreaches.Inc()
	r.sloStreak++
	if r.sloStreak < r.cfg.SLOBreaches {
		return nil
	}
	r.sloStreak = 0
	return []obs.Label{
		obs.L("p99_seconds", formatSeconds(p99)),
		obs.L("target_seconds", formatSeconds(target)),
		obs.L("windows", strconv.Itoa(r.cfg.SLOBreaches)),
		obs.L("window", r.cfg.SLOWindow.String()),
	}
}

// --- stall guards --------------------------------------------------------

// Guard is one heartbeat-monitored activity (a collection run, a
// cross-validation). Beat marks progress; Stop disarms the guard. A nil
// *Guard (from a nil recorder) is a no-op.
type Guard struct {
	r        *Recorder
	name     string
	lastNano atomic.Int64
	fired    atomic.Bool
}

// Guard arms a stall guard named name. The caller must Stop it when the
// guarded activity completes.
func (r *Recorder) Guard(name string) *Guard {
	if r == nil {
		return nil
	}
	g := &Guard{r: r, name: name}
	g.lastNano.Store(r.clock().UnixNano())
	r.mu.Lock()
	r.guards[g] = struct{}{}
	r.mu.Unlock()
	return g
}

// Beat records progress: the stall deadline restarts from now. Safe on
// the per-document hot path (two atomics and a clock read).
func (g *Guard) Beat() {
	if g == nil {
		return
	}
	g.lastNano.Store(g.r.clock().UnixNano())
	g.fired.Store(false)
}

// Stop disarms the guard.
func (g *Guard) Stop() {
	if g == nil {
		return
	}
	g.r.mu.Lock()
	delete(g.r.guards, g)
	g.r.mu.Unlock()
}

// --- watchdog loop -------------------------------------------------------

// Tick runs one watchdog pass at the injected now: it captures a metric
// reading into the delta ring and evaluates the SLO window, stall
// deadlines, and the goroutine-count limit, firing triggers as needed.
// The background Watch loop calls it; deterministic tests call it
// directly.
func (r *Recorder) Tick(now time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if m, ok := r.readMetrics(now); ok {
		r.metricHist = r.withReading(r.metricHist, m)
	}
	slo := r.sloPassLocked(now)
	r.mu.Unlock()
	if slo != nil {
		r.Trigger(ReasonSLOBreach, slo...)
	}

	r.mu.Lock()
	var stalled []*Guard
	for g := range r.guards {
		last := time.Unix(0, g.lastNano.Load())
		if now.Sub(last) > r.cfg.StallDeadline && g.fired.CompareAndSwap(false, true) {
			stalled = append(stalled, g)
		}
	}
	r.mu.Unlock()
	sort.Slice(stalled, func(i, j int) bool { return stalled[i].name < stalled[j].name })
	for _, g := range stalled {
		r.Trigger(ReasonStall,
			obs.L("guard", g.name),
			obs.L("last_heartbeat", time.Unix(0, g.lastNano.Load()).UTC().Format(time.RFC3339)),
			obs.L("deadline", r.cfg.StallDeadline.String()))
	}

	if limit := r.cfg.GoroutineLimit; limit > 0 {
		n := r.goroutines()
		r.mu.Lock()
		fire := n >= limit && !r.goroLatched
		r.goroLatched = n >= limit
		r.mu.Unlock()
		if fire {
			r.Trigger(ReasonGoroutineSpike,
				obs.L("goroutines", strconv.Itoa(n)),
				obs.L("limit", strconv.Itoa(limit)))
		}
	}

	r.mu.Lock()
	watches := append([]*replicaLagWatch(nil), r.lagWatches...)
	r.mu.Unlock()
	for _, w := range watches {
		lag, replica := w.fn()
		r.mu.Lock()
		if lag > w.max {
			w.streak++
		} else {
			w.streak = 0
		}
		fire := w.streak >= w.ticks
		if fire {
			w.streak = 0
		}
		r.mu.Unlock()
		if fire {
			r.Trigger(ReasonReplicaLag,
				obs.L("replica", replica),
				obs.L("apply_lag", lag.String()),
				obs.L("max_apply_lag", w.max.String()),
				obs.L("ticks", strconv.Itoa(w.ticks)))
		}
	}
}

// formatSeconds renders a seconds value compactly for details fields.
func formatSeconds(s float64) string { return strconv.FormatFloat(s, 'g', 4, 64) }

// Watch starts the background watchdog loop, Ticking every interval until
// Close. Call at most once; tests use Tick directly instead.
func (r *Recorder) Watch(interval time.Duration) {
	if r == nil || interval <= 0 {
		return
	}
	r.watchOnce.Do(func() {
		go func() {
			defer close(r.done)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-r.quit:
					return
				case <-t.C:
					r.Tick(r.clock())
				}
			}
		}()
	})
}

// Close stops the Watch loop, if one was started. Idempotent.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	// Claim the watch slot: if no loop ever started, mark it finished.
	r.watchOnce.Do(func() { close(r.done) })
	r.closeOnce.Do(func() { close(r.quit) })
	<-r.done
}

// --- capture & trigger ---------------------------------------------------

// readMetrics reads the registry's series into one capture; ok is false
// without a registry. The read is not a scrape, so it leaves the scrape
// counters alone.
func (r *Recorder) readMetrics(now time.Time) (MetricCapture, bool) {
	if r.cfg.Registry == nil {
		return MetricCapture{}, false
	}
	return MetricCapture{Time: now, Series: r.cfg.Registry.Series()}, true
}

// withReading appends m to hist and keeps the newest MetricsHistory
// captures.
func (r *Recorder) withReading(hist []MetricCapture, m MetricCapture) []MetricCapture {
	hist = append(hist, m)
	return hist[max(0, len(hist)-r.cfg.MetricsHistory):]
}

// captureLocked assembles a complete in-memory bundle, all but its
// profiles section. The bundle's metrics are the delta ring plus one
// fresh reading; record also adds that reading to the ring, as triggers
// do, while the read-only debug view leaves the ring as it was. Caller
// holds r.mu.
func (r *Recorder) captureLocked(reason string, details []obs.Label, record bool) *Bundle {
	now := r.clock()
	b := &Bundle{
		Schema: BundleSchema,
		Reason: reason,
		Time:   now,
		Build:  obs.Build(),
	}
	if len(details) > 0 {
		b.Details = make(map[string]string, len(details))
		for _, l := range details {
			b.Details[l.Key] = l.Value
		}
	}
	b.Spans = r.cfg.Tracer.Snapshot()
	b.SpanStats = r.cfg.Tracer.Stats()
	b.Logs = r.cfg.Logs.Recent(LogLines)
	b.DroppedLogs = r.cfg.Logs.Dropped()
	b.Metrics = append([]MetricCapture(nil), r.metricHist...)
	if m, ok := r.readMetrics(now); ok {
		b.Metrics = r.withReading(b.Metrics, m)
		if record {
			r.metricHist = r.withReading(r.metricHist, m)
		}
	}
	b.Goroutines = r.goroutines()
	b.GoroutineDump = goroutineDump()
	b.MemStats = readMemStats()
	if len(r.infos) > 0 {
		b.Extras = make(map[string]map[string]string, len(r.infos))
		for _, p := range r.infos {
			b.Extras[p.name] = p.fn()
		}
	}
	b.Requests = r.cfg.Requests.Snapshot()
	return b
}

// breachCPUReasons are the trigger reasons whose bundle gets a fresh
// CPU capture of the breach window on top of the frozen profile ring:
// the anomalies where "where are the cycles going *right now*" is the
// first question an on-call engineer asks.
var breachCPUReasons = map[string]bool{
	ReasonSLOBreach:      true,
	ReasonStall:          true,
	ReasonShardStall:     true,
	ReasonCircuitBreaker: true,
	ReasonReplicaLag:     true,
}

// goroutineDump renders all goroutine stacks.
func goroutineDump() string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return string(buf[:n])
}

// readMemStats summarizes runtime.MemStats.
func readMemStats() MemSummary {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return MemSummary{
		HeapAllocBytes:  m.HeapAlloc,
		HeapSysBytes:    m.HeapSys,
		HeapObjects:     m.HeapObjects,
		TotalAllocBytes: m.TotalAlloc,
		SysBytes:        m.Sys,
		NumGC:           m.NumGC,
		PauseTotalNs:    m.PauseTotalNs,
	}
}

// Trigger fires an anomaly trigger: subject to the MinInterval rate
// limit, it captures a bundle, persists it when a flight directory is
// configured, prunes retention, and logs the incident. It returns the
// bundle file's path ("" when persistence is disabled or the trigger was
// suppressed).
//
// r.mu covers the rate-limit decision, the capture and lastPath only.
// Freezing the profiler (a fresh CPU window for breach reasons), writing
// the bundle and pruning run under r.writeMu alone, so the watchdog's
// Tick, Guard and Guard.Stop, WatchReplicaLag and the /debug/bundle view
// do not wait behind a CPU window and a disk write. A suppressed trigger
// returns without taking r.writeMu.
func (r *Recorder) Trigger(reason string, details ...obs.Label) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	now := r.clock()
	if !r.lastAuto.IsZero() && now.Sub(r.lastAuto) < r.cfg.MinInterval {
		r.mu.Unlock()
		r.suppressed.Inc()
		r.log.Info("flight trigger suppressed by rate limit",
			append([]obs.Label{obs.L("reason", reason)}, details...)...)
		return ""
	}
	r.lastAuto = now
	r.mu.Unlock()

	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	r.mu.Lock()
	b := r.captureLocked(reason, details, true)
	r.mu.Unlock()
	b.Profiles = r.cfg.Profiles.Freeze(breachCPUReasons[reason])
	return r.write(b)
}

// write persists a bundle (when Dir is set), prunes retention, counts,
// and logs. Caller holds r.writeMu; write takes r.mu only to record the
// path.
func (r *Recorder) write(b *Bundle) string {
	r.bundlesByReason(b.Reason).Inc()
	if r.cfg.Dir == "" {
		r.log.Error("flight trigger fired (no flight dir, bundle not persisted)",
			obs.L("reason", b.Reason))
		return ""
	}
	path, err := b.writeFile(r.cfg.Dir)
	if err != nil {
		r.log.Error("flight bundle write failed",
			obs.L("reason", b.Reason), obs.L("err", err.Error()))
		return ""
	}
	r.prune()
	r.mu.Lock()
	r.lastPath = path
	r.mu.Unlock()
	r.log.Error("diagnostic bundle captured",
		obs.L("reason", b.Reason), obs.L("path", path))
	return path
}

// prune enforces MaxBundles retention, deleting the oldest bundle files
// first. Names sort chronologically once their .json is cut off, which
// puts a same-second "-2" after the bundle it collided with. Caller holds
// r.writeMu.
func (r *Recorder) prune() {
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return
	}
	var stems []string
	for _, e := range entries {
		if stem, ok := strings.CutSuffix(e.Name(), ".json"); ok && !e.IsDir() && strings.HasPrefix(stem, "bundle-") {
			stems = append(stems, stem)
		}
	}
	if len(stems) <= r.cfg.MaxBundles {
		return
	}
	sort.Strings(stems)
	for _, stem := range stems[:len(stems)-r.cfg.MaxBundles] {
		_ = os.Remove(filepath.Join(r.cfg.Dir, stem+".json"))
	}
}

// LastBundleDir reports the path of the most recently written bundle
// file.
func (r *Recorder) LastBundleDir() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastPath
}
