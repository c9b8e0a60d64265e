// Package reqlog builds one structured wide event per request — the
// canonical-log-line pattern — assembled along the whole QUEST serving
// path: the quest middleware opens the event (method, route, status,
// total latency, trace ID), the shard router records per-shard attempt
// outcomes, and the classifier records per-stage timers through a
// zero-alloc StageClock carried on the request context. A tail sampler
// retains full events only when they matter (slow, degraded, hedged,
// non-2xx, panic, breaker trip — plus always-sample and head-sample
// escape hatches) in a fixed-capacity ring that flight-recorder bundles
// and questd's GET /debug/bundle freeze, and `qatk diagnose` renders.
//
// Everything is nil-safe, mirroring the obs contract: a nil *Log hands
// out nil *Builder handles, a nil *Builder hands out a nil *StageClock,
// and every method on either is a cheap no-op — the disabled request
// path costs nil checks, not allocations.
package reqlog

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one timed phase of the serving path: the knowledge
// base's ranking pass, which retrieves, scores and selects candidates in
// one walk; the shard router's merge; and the code dedup collapse.
type Stage int

// Stages in serving-path order.
const (
	StageScore Stage = iota
	StageMerge
	StageDedup
	numStages
)

// stageNames index by Stage.
var stageNames = [numStages]string{"score", "merge", "dedup"}

// String names the stage as it appears in events and reports.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return "stage" + strconv.Itoa(int(s))
	}
	return stageNames[s]
}

// StageClock accumulates per-stage wall time for one request. It is
// carried on the request context (inside the event Builder) and read on
// the classifier hot path, so the disabled state — a nil *StageClock —
// must cost nothing: Start returns the zero time without reading the
// clock, and Lap is a plain nil check. The accumulators are atomics
// because scatter queries time stages from several shard goroutines at
// once.
type StageClock struct {
	now   func() time.Time
	nanos [numStages]atomic.Int64
}

// Start reads the clock for a stage measurement about to begin. On a nil
// clock it returns the zero time without touching the wall clock.
//
//qatk:hotpath
func (c *StageClock) Start() time.Time {
	if c == nil {
		return time.Time{}
	}
	return c.now()
}

// Lap credits the time since `since` to stage s and returns the current
// instant, so consecutive stages chain measurements with one clock read
// each. A nil clock is a no-op returning the zero time.
//
//qatk:hotpath
func (c *StageClock) Lap(s Stage, since time.Time) time.Time {
	if c == nil {
		return time.Time{}
	}
	now := c.now()
	c.nanos[s].Add(now.Sub(since).Nanoseconds())
	return now
}

// Stage reads the accumulated duration of one stage.
func (c *StageClock) Stage(s Stage) time.Duration {
	if c == nil || s < 0 || s >= numStages {
		return 0
	}
	return time.Duration(c.nanos[s].Load())
}

// timings snapshots the non-zero stages in serving-path order.
func (c *StageClock) timings() []StageTiming {
	if c == nil {
		return nil
	}
	var out []StageTiming
	for i := Stage(0); i < numStages; i++ {
		if d := time.Duration(c.nanos[i].Load()); d > 0 {
			out = append(out, StageTiming{Name: i.String(), Duration: d})
		}
	}
	return out
}

// StageTiming is one stage's share of a request, as serialized in events.
type StageTiming struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"`
}

// ShardAttempt is one sub-query attempt's outcome as the router saw it:
// which shard, which attempt (1 = primary, 2 = hedge), the breaker state
// at admission, the effective deadline the attempt ran under, how long
// it took, whether it won the race, and how it failed. An attempt
// rejected outright by an open breaker records attempt 0.
type ShardAttempt struct {
	Shard   int    `json:"shard"`
	Attempt int    `json:"attempt"`
	Hedged  bool   `json:"hedged,omitempty"`
	Winner  bool   `json:"winner,omitempty"`
	Breaker string `json:"breaker,omitempty"`
	// Replica names the read replica that served the attempt (hedges
	// routed to a fresh replica, and attempt-3 rescues); empty for
	// primary-shard attempts.
	Replica  string        `json:"replica,omitempty"`
	Deadline time.Duration `json:"deadline_ns,omitempty"`
	Duration time.Duration `json:"duration_ns"`
	Err      string        `json:"err,omitempty"`
}

// Event is one request's wide event: everything the serving path learned
// about it, in one record. Durations serialize as integer nanoseconds
// (the encoding/json rendering of time.Duration), so events round-trip
// bit-identically through /debug/bundle responses and bundle files.
type Event struct {
	TraceID  string        `json:"trace_id"`
	Method   string        `json:"method"`
	Route    string        `json:"route"`
	Status   int           `json:"status"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`

	// Query identity, recorded by the /api/recommend handler.
	Part     string `json:"part,omitempty"`
	Features int    `json:"features,omitempty"`

	// Outcome flags mirroring the degradation contract of the response
	// envelope.
	Degraded     bool  `json:"degraded,omitempty"`
	Hedged       bool  `json:"hedged,omitempty"`
	Scatter      bool  `json:"scatter,omitempty"`
	FailedShards []int `json:"failed_shards,omitempty"`
	// Replica marks an answer at least partly served by a read replica;
	// Stale additionally marks a contributing replica as beyond the
	// router's apply-lag bound (stale: true in the envelope).
	Replica bool `json:"replica,omitempty"`
	Stale   bool `json:"stale,omitempty"`

	// Panic carries the recovered panic value; BreakerTrips the shards
	// whose breaker tripped open during this request.
	Panic        string `json:"panic,omitempty"`
	BreakerTrips []int  `json:"breaker_trips,omitempty"`

	Stages []StageTiming  `json:"stages,omitempty"`
	Shards []ShardAttempt `json:"shards,omitempty"`

	// Reasons lists why the tail sampler retained the event (empty on an
	// event that was observed but dropped — such events never leave the
	// sampler).
	Reasons []string `json:"reasons"`
}

// TraceIDString renders a trace ID the way exemplars and events carry
// it: fixed-width lowercase hex.
func TraceIDString(id uint64) string {
	const hexDigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// Builder accumulates one request's wide event as it travels the serving
// path. The quest middleware creates it (Log.Begin) and finishes it
// (Finish); the layers in between record through the nil-safe setters.
// The mutex serializes scatter-goroutine recording against Finish.
type Builder struct {
	log   *Log
	start time.Time
	clock StageClock

	mu       sync.Mutex
	method   string         //qatk:guardedby mu
	route    string         //qatk:guardedby mu
	part     string         //qatk:guardedby mu
	features int            //qatk:guardedby mu
	degraded bool           //qatk:guardedby mu
	hedged   bool           //qatk:guardedby mu
	scatter  bool           //qatk:guardedby mu
	replica  bool           //qatk:guardedby mu
	stale    bool           //qatk:guardedby mu
	failed   []int          //qatk:guardedby mu
	panicMsg string         //qatk:guardedby mu
	trips    []int          //qatk:guardedby mu
	attempts []ShardAttempt //qatk:guardedby mu
}

// Clock returns the builder's stage clock (nil from a nil builder, so
// the classifier's timing calls vanish when request logging is off).
func (b *Builder) Clock() *StageClock {
	if b == nil {
		return nil
	}
	return &b.clock
}

// Query records the query identity of a recommendation request.
func (b *Builder) Query(part string, features int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.part, b.features = part, features
	b.mu.Unlock()
}

// Outcome records the degradation contract of the response envelope.
func (b *Builder) Outcome(degraded, hedged, scatter bool, failedShards []int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.degraded, b.hedged, b.scatter = degraded, hedged, scatter
	if len(failedShards) > 0 {
		b.failed = append(b.failed[:0], failedShards...)
	}
	b.mu.Unlock()
}

// ReplicaServed records the replica-serving outcome flags: at least one
// sub-answer came from a read replica, and whether a contributing
// replica was beyond the apply-lag bound.
func (b *Builder) ReplicaServed(replica, stale bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.replica, b.stale = replica, stale
	b.mu.Unlock()
}

// Attempt records one shard sub-query attempt outcome. Safe from the
// router's scatter and attempt goroutines.
func (b *Builder) Attempt(a ShardAttempt) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.attempts = append(b.attempts, a)
	b.mu.Unlock()
}

// MarkWinner flags the recorded attempt that won its sub-query race.
func (b *Builder) MarkWinner(shard, attempt int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	for i := range b.attempts {
		if b.attempts[i].Shard == shard && b.attempts[i].Attempt == attempt {
			b.attempts[i].Winner = true
			break
		}
	}
	b.mu.Unlock()
}

// SetPanic records a recovered handler panic (a hard retention reason).
func (b *Builder) SetPanic(value string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.panicMsg = value
	b.mu.Unlock()
}

// BreakerTrip records a shard breaker tripping open during this request
// (a hard retention reason).
func (b *Builder) BreakerTrip(shard int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.trips = append(b.trips, shard)
	b.mu.Unlock()
}

// Finish seals the event with its response status, trace ID and total
// latency, offers it to the tail sampler, and reports whether it was
// retained. A nil builder reports false.
func (b *Builder) Finish(status int, traceID uint64, d time.Duration) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	ev := Event{
		TraceID:  TraceIDString(traceID),
		Method:   b.method,
		Route:    b.route,
		Status:   status,
		Start:    b.start,
		Duration: d,
		Part:     b.part,
		Features: b.features,
		Degraded: b.degraded,
		Hedged:   b.hedged,
		Scatter:  b.scatter,
		Replica:  b.replica,
		Stale:    b.stale,
		Panic:    b.panicMsg,
	}
	if len(b.failed) > 0 {
		ev.FailedShards = append([]int(nil), b.failed...)
	}
	if len(b.trips) > 0 {
		ev.BreakerTrips = append([]int(nil), b.trips...)
	}
	if len(b.attempts) > 0 {
		ev.Shards = append([]ShardAttempt(nil), b.attempts...)
	}
	b.mu.Unlock()
	ev.Stages = b.clock.timings()
	return b.log.finish(ev)
}

// ctxKey carries the *Builder on the request context.
type ctxKey struct{}

// NewContext returns ctx carrying the builder. A nil builder returns ctx
// unchanged, so the disabled path allocates no context node.
func NewContext(ctx context.Context, b *Builder) context.Context {
	if b == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, b)
}

// From extracts the request's event builder (nil when request logging is
// off or ctx carries none).
func From(ctx context.Context) *Builder {
	if ctx == nil {
		return nil
	}
	b, _ := ctx.Value(ctxKey{}).(*Builder)
	return b
}

// ClockFrom extracts the request's stage clock; nil-safe end to end, so
// the shard worker passes it straight into the classifier.
func ClockFrom(ctx context.Context) *StageClock {
	return From(ctx).Clock()
}
