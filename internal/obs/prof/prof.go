// Package prof is the QATK/QUEST continuous profiler: a background
// sampler that periodically captures the process's runtime profiles —
// CPU (the raw gzipped pprof protobuf), heap and goroutine — into a
// bounded in-memory ring, computes heap *deltas* between consecutive
// snapshots, and reduces the heap and goroutine records to top-N frame
// summaries so a report needs no external tooling.
//
// The ring is the profiling analogue of the flight recorder's span and
// log rings: it retains the recent past cheaply, and when an anomaly
// fires the flight recorder freezes it (plus a fresh CPU capture of the
// breach window) into the diagnostic bundle as the `profiles` section.
// A live questd's GET /debug/bundle freezes it the same way, and
// `qatk diagnose <url|bundle>` renders either source identically.
//
// Everything is nil-safe: a nil *Sampler (profiling disabled) makes
// every method a cheap no-op, mirroring the obs package contract. The
// ring lock is split from the capture path, so a freeze never waits on
// an in-flight CPU window.
package prof

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/obs"
)

// Metric names the profiler emits (qatklint/metricname: constants,
// snake_case, prof_ prefix, unit suffix).
const (
	// MetricCapturesTotal counts completed snapshot captures.
	MetricCapturesTotal = "prof_captures_total"
	// MetricCaptureErrorsTotal counts failed profile captures (a CPU
	// window that could not start, a runtime profile that failed to
	// read).
	MetricCaptureErrorsTotal = "prof_capture_errors_total"
	// MetricCaptureSeconds observes how long one full snapshot capture
	// takes (dominated by the CPU window).
	MetricCaptureSeconds = "prof_capture_seconds"
	// MetricRingBytes gauges the raw profile bytes currently retained in
	// the ring.
	MetricRingBytes = "prof_ring_bytes"
	// MetricFreezesTotal counts ring freezes into flight bundles or
	// /debug/bundle responses.
	MetricFreezesTotal = "prof_freezes_total"
)

// Defaults for zero Config fields.
const (
	DefaultInterval   = 30 * time.Second
	DefaultWindowSize = 250 * time.Millisecond
	DefaultRing       = 8
)

// TopN bounds the frames kept per profile summary and per heap delta.
const TopN = 10

// Config wires a Sampler.
type Config struct {
	// Interval is the cadence of the background sampling loop started by
	// Start (default 30s). Tests drive SampleNow directly instead.
	Interval time.Duration
	// WindowSize is how long each CPU capture runs (default 250ms). It
	// is also the breach-window length of the fresh CPU capture a flight
	// freeze requests.
	WindowSize time.Duration
	// Ring bounds how many snapshots are retained (default 8, oldest
	// evicted first).
	Ring int

	// Clock is the injected time source (default time.Now).
	Clock func() time.Time

	// Observability, nil-safe.
	Registry *obs.Registry
	Logger   *obs.Logger

	// CaptureCPU overrides the CPU capture (tests inject canned pprof
	// bytes; the default runs pprof.StartCPUProfile for the window).
	CaptureCPU func(window time.Duration) ([]byte, error)
	// Profile overrides the runtime profile read, keyed by profile name,
	// "heap" or "goroutine" (tests inject canned samples; the default
	// reads runtime.MemProfile and runtime.GoroutineProfile records).
	Profile func(name string) ([]Sample, error)
}

// Sampler is the continuous profiler. A nil *Sampler is disabled and
// every method is a no-op.
type Sampler struct {
	cfg   Config
	clock func() time.Time
	log   *obs.Logger

	captures   *obs.Counter
	capErrors  *obs.Counter
	capSeconds *obs.Histogram
	ringBytes  *obs.Gauge
	freezes    *obs.Counter

	// cpuMu serializes CPU windows: the runtime allows one CPU profile at
	// a time, and a flight freeze's breach-window capture must wait for
	// an in-flight sampling window rather than fail.
	cpuMu sync.Mutex

	// ringMu guards only the ring slice — split from the capture path so
	// Ring/Freeze readers never block behind a 250ms CPU window.
	ringMu sync.Mutex
	ring   []Snapshot //qatk:guardedby ringMu

	watchOnce sync.Once
	closeOnce sync.Once
	quit      chan struct{}
	done      chan struct{}
}

// New builds a Sampler. Zero Config fields take the package defaults.
func New(cfg Config) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = DefaultWindowSize
	}
	if cfg.Ring <= 0 {
		cfg.Ring = DefaultRing
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	s := &Sampler{
		cfg:   cfg,
		clock: cfg.Clock,
		log:   cfg.Logger,
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if s.cfg.CaptureCPU == nil {
		s.cfg.CaptureCPU = s.captureCPUWindow
	}
	if s.cfg.Profile == nil {
		s.cfg.Profile = runtimeSamples
	}
	reg := cfg.Registry
	s.captures = reg.Counter(MetricCapturesTotal)
	s.capErrors = reg.Counter(MetricCaptureErrorsTotal)
	s.capSeconds = reg.Histogram(MetricCaptureSeconds, obs.DefBuckets)
	s.ringBytes = reg.Gauge(MetricRingBytes)
	s.freezes = reg.Counter(MetricFreezesTotal)
	return s
}

// captureCPUWindow runs the real runtime CPU profiler for the window and
// returns the gzipped pprof protobuf.
func (s *Sampler) captureCPUWindow(window time.Duration) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("prof: start cpu profile: %w", err)
	}
	// The window is wall-clock sleep, not the injected clock: the runtime
	// samples in real time regardless of what tests pretend time is.
	timer := time.NewTimer(window)
	select {
	case <-timer.C:
	case <-s.quit:
		timer.Stop()
	}
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// SampleNow captures one complete snapshot — CPU window, heap and
// goroutine profiles — appends it to the ring, and returns it. The
// background loop calls it every Interval; deterministic tests call it
// directly.
func (s *Sampler) SampleNow() *Snapshot {
	if s == nil {
		return nil
	}
	start := s.clock()
	snap := Snapshot{Time: start, CPUWindowNs: s.cfg.WindowSize.Nanoseconds()}

	s.cpuMu.Lock()
	cpu, err := s.cfg.CaptureCPU(s.cfg.WindowSize)
	s.cpuMu.Unlock()
	if err != nil {
		s.capErrors.Inc()
		s.log.Warn("cpu profile capture failed", obs.L("err", err.Error()))
	} else {
		snap.CPUPprof = cpu
	}

	snap.Heap = s.summarize("heap")
	snap.Goroutine = s.summarize("goroutine")
	snap.Goroutines = int(snap.Goroutine.Total)

	s.ringMu.Lock()
	if n := len(s.ring); n > 0 {
		snap.HeapDelta = heapDelta(&s.ring[n-1].Heap, &snap.Heap)
	}
	s.ring = append(s.ring, snap)
	if n := len(s.ring); n > s.cfg.Ring {
		s.ring = append(s.ring[:0], s.ring[n-s.cfg.Ring:]...)
	}
	var raw int64
	for i := range s.ring {
		raw += s.ring[i].rawBytes()
	}
	s.ringMu.Unlock()

	s.ringBytes.Set(float64(raw))
	s.captures.Inc()
	s.capSeconds.Observe(s.clock().Sub(start).Seconds())
	return &snap
}

// summarize reads one named runtime profile and reduces it to a top-N
// frame summary.
func (s *Sampler) summarize(name string) ProfileSummary {
	samples, err := s.cfg.Profile(name)
	if err != nil {
		s.capErrors.Inc()
		s.log.Warn("profile capture failed",
			obs.L("profile", name), obs.L("err", err.Error()))
		return ProfileSummary{}
	}
	return summarize(samples, name == "heap")
}

// Ring returns a copy of the retained snapshots, oldest first.
func (s *Sampler) Ring() []Snapshot {
	if s == nil {
		return nil
	}
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	return append([]Snapshot(nil), s.ring...)
}

// Freeze snapshots the ring for a bundle or a /debug/bundle response. When
// breachCPU is true it additionally runs a fresh CPU capture of one
// WindowSize — the breach window — so the bundle carries the cycles of
// the incident itself, not just the last periodic sample. A nil sampler
// returns nil (the bundle simply omits the section).
func (s *Sampler) Freeze(breachCPU bool) *Capture {
	if s == nil {
		return nil
	}
	c := &Capture{Ring: s.Ring(), WindowNs: s.cfg.WindowSize.Nanoseconds()}
	if breachCPU {
		s.cpuMu.Lock()
		cpu, err := s.cfg.CaptureCPU(s.cfg.WindowSize)
		s.cpuMu.Unlock()
		if err != nil {
			s.capErrors.Inc()
			s.log.Warn("breach-window cpu capture failed", obs.L("err", err.Error()))
		} else {
			c.BreachCPU = cpu
		}
	}
	s.freezes.Inc()
	return c
}

// Start launches the background sampling loop, capturing every Interval
// until Close. Call at most once; tests use SampleNow directly.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.watchOnce.Do(func() {
		go func() {
			defer close(s.done)
			t := time.NewTicker(s.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-s.quit:
					return
				case <-t.C:
					s.SampleNow()
				}
			}
		}()
	})
}

// Close stops the sampling loop, if one was started. Idempotent.
func (s *Sampler) Close() {
	if s == nil {
		return
	}
	// Claim the start slot: if no loop ever started, mark it finished.
	s.watchOnce.Do(func() { close(s.done) })
	s.closeOnce.Do(func() { close(s.quit) })
	<-s.done
}
