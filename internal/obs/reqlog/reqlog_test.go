package reqlog

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock is a deterministic time source tests advance by hand.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

// finish seals a synthetic event through a builder with the given shape.
func finish(l *Log, status int, d time.Duration, shape func(*Builder)) bool {
	b := l.Begin("GET", "/api/recommend")
	if shape != nil {
		shape(b)
	}
	return b.Finish(status, 42, d)
}

// TestTailSamplerRetention is the deterministic acceptance test: after
// the rolling window engages on a fast baseline, a slow request and a
// degraded request are retained while a fast 200 is not.
func TestTailSamplerRetention(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	l := New(Config{Capacity: 16, TailFactor: 1, MinCount: 64, Registry: reg, Clock: clk.now})

	// Warm the rolling window: 100 fast 200s. None may be retained —
	// the p99 threshold is exactly the fast bucket's bound (1ms), and
	// retention requires exceeding it.
	for i := 0; i < 100; i++ {
		if finish(l, 200, time.Millisecond, nil) {
			t.Fatalf("fast 200 #%d was retained", i)
		}
	}
	if got := l.Threshold(); got != time.Millisecond {
		t.Fatalf("threshold = %v, want 1ms", got)
	}

	if !finish(l, 200, 50*time.Millisecond, nil) {
		t.Fatal("slow request was not retained")
	}
	if !finish(l, 200, time.Millisecond, func(b *Builder) {
		b.Outcome(true, false, true, []int{2})
	}) {
		t.Fatal("degraded request was not retained")
	}
	if finish(l, 200, time.Millisecond, nil) {
		t.Fatal("fast 200 after warmup was retained")
	}

	events := l.Snapshot()
	if len(events) != 2 {
		t.Fatalf("ring holds %d events, want 2", len(events))
	}
	// Newest first: the degraded event, then the slow one.
	if !reflect.DeepEqual(events[0].Reasons, []string{ReasonDegraded}) {
		t.Fatalf("degraded event reasons = %v", events[0].Reasons)
	}
	if !reflect.DeepEqual(events[0].FailedShards, []int{2}) {
		t.Fatalf("degraded event failed shards = %v", events[0].FailedShards)
	}
	if !reflect.DeepEqual(events[1].Reasons, []string{ReasonSlow}) {
		t.Fatalf("slow event reasons = %v", events[1].Reasons)
	}
	if events[1].Duration != 50*time.Millisecond {
		t.Fatalf("slow event duration = %v", events[1].Duration)
	}

	if got := reg.Counter(MetricReqObservedTotal).Value(); got != 103 {
		t.Fatalf("observed = %d, want 103", got)
	}
	if got := reg.Counter(MetricReqDroppedTotal).Value(); got != 101 {
		t.Fatalf("dropped = %d, want 101", got)
	}
	if got := reg.Counter(MetricReqRetainedTotal, obs.L("reason", ReasonSlow)).Value(); got != 1 {
		t.Fatalf("retained{slow} = %d, want 1", got)
	}
	if got := reg.Counter(MetricReqRetainedTotal, obs.L("reason", ReasonDegraded)).Value(); got != 1 {
		t.Fatalf("retained{degraded} = %d, want 1", got)
	}
}

// TestHardReasons covers the remaining retention rules: non-2xx status,
// hedging, panic, and breaker trips.
func TestHardReasons(t *testing.T) {
	l := New(Config{Capacity: 8})
	cases := []struct {
		name   string
		status int
		shape  func(*Builder)
		want   []string
	}{
		{"status", 500, nil, []string{ReasonStatus}},
		{"hedged", 200, func(b *Builder) { b.Outcome(false, true, false, nil) }, []string{ReasonHedged}},
		{"panic", 500, func(b *Builder) { b.SetPanic("boom") }, []string{ReasonStatus, ReasonPanic}},
		{"breaker", 200, func(b *Builder) { b.BreakerTrip(3) }, []string{ReasonBreaker}},
	}
	for _, tc := range cases {
		if !finish(l, tc.status, time.Millisecond, tc.shape) {
			t.Fatalf("%s: not retained", tc.name)
		}
		ev := l.Snapshot()[0]
		if !reflect.DeepEqual(ev.Reasons, tc.want) {
			t.Fatalf("%s: reasons = %v, want %v", tc.name, ev.Reasons, tc.want)
		}
	}
}

// TestEscapeHatches covers SampleAll and head sampling.
func TestEscapeHatches(t *testing.T) {
	all := New(Config{Capacity: 4, SampleAll: true})
	if !finish(all, 200, time.Millisecond, nil) {
		t.Fatal("SampleAll did not retain a fast 200")
	}
	if got := all.Snapshot()[0].Reasons; !reflect.DeepEqual(got, []string{ReasonAlways}) {
		t.Fatalf("reasons = %v", got)
	}

	head := New(Config{Capacity: 8, HeadEvery: 3})
	kept := 0
	for i := 0; i < 9; i++ {
		if finish(head, 200, time.Millisecond, nil) {
			kept++
		}
	}
	if kept != 3 {
		t.Fatalf("head sampling kept %d of 9, want 3", kept)
	}
}

// TestRingEviction proves the fixed-capacity ring keeps the newest
// events, newest first.
func TestRingEviction(t *testing.T) {
	l := New(Config{Capacity: 2, SampleAll: true})
	for i := 0; i < 3; i++ {
		finish(l, 200+i, time.Millisecond, nil)
	}
	events := l.Snapshot()
	if len(events) != 2 {
		t.Fatalf("ring holds %d, want 2", len(events))
	}
	if events[0].Status != 202 || events[1].Status != 201 {
		t.Fatalf("ring order = %d, %d; want 202, 201", events[0].Status, events[1].Status)
	}
}

// TestBuilderAssemblesWideEvent checks the full event shape: stage
// timings, shard attempts, winner marking, and trace ID formatting.
func TestBuilderAssemblesWideEvent(t *testing.T) {
	clk := newFakeClock()
	l := New(Config{Capacity: 4, SampleAll: true, Clock: clk.now})
	b := l.Begin("GET", "/api/recommend")
	b.Query("P042", 3)

	sc := b.Clock()
	start := sc.Start()
	clk.advance(2 * time.Millisecond)
	start = sc.Lap(StageScore, start)
	clk.advance(time.Millisecond)
	sc.Lap(StageMerge, start)

	b.Attempt(ShardAttempt{Shard: 1, Attempt: 1, Breaker: "closed", Deadline: 250 * time.Millisecond, Duration: 3 * time.Millisecond})
	b.Attempt(ShardAttempt{Shard: 1, Attempt: 2, Hedged: true, Breaker: "closed", Duration: time.Millisecond})
	b.MarkWinner(1, 2)
	b.Outcome(false, true, false, nil)

	if !b.Finish(200, 0xabc, 5*time.Millisecond) {
		t.Fatal("event not retained under SampleAll")
	}
	ev := l.Snapshot()[0]
	if ev.TraceID != "0000000000000abc" {
		t.Fatalf("trace id = %q", ev.TraceID)
	}
	if ev.Part != "P042" || ev.Features != 3 {
		t.Fatalf("query identity = %q/%d", ev.Part, ev.Features)
	}
	want := []StageTiming{
		{Name: "score", Duration: 2 * time.Millisecond},
		{Name: "merge", Duration: time.Millisecond},
	}
	if !reflect.DeepEqual(ev.Stages, want) {
		t.Fatalf("stages = %+v", ev.Stages)
	}
	if len(ev.Shards) != 2 || !ev.Shards[1].Winner || ev.Shards[0].Winner {
		t.Fatalf("shard attempts = %+v", ev.Shards)
	}
	if !ev.Hedged {
		t.Fatal("hedged flag lost")
	}
}

// TestStageTotals aggregates across all finished events, retained or not.
func TestStageTotals(t *testing.T) {
	clk := newFakeClock()
	l := New(Config{Capacity: 4, Clock: clk.now})
	for i := 0; i < 3; i++ {
		b := l.Begin("GET", "/api/recommend")
		sc := b.Clock()
		start := sc.Start()
		clk.advance(time.Millisecond)
		sc.Lap(StageScore, start)
		b.Finish(200, 1, time.Millisecond) // fast 200: observed, dropped
	}
	totals := l.StageTotals()
	if len(totals) != 1 || totals[0].Name != "score" ||
		totals[0].Count != 3 || totals[0].Total != 3*time.Millisecond {
		t.Fatalf("stage totals = %+v", totals)
	}
}

// TestNilSafety drives the whole disabled surface: nil log, nil builder,
// nil clock, contexts without a builder.
func TestNilSafety(t *testing.T) {
	var l *Log
	b := l.Begin("GET", "/")
	if b != nil {
		t.Fatal("nil log handed out a builder")
	}
	b.Query("P", 1)
	b.Outcome(true, true, true, []int{1})
	b.Attempt(ShardAttempt{})
	b.MarkWinner(0, 1)
	b.SetPanic("x")
	b.BreakerTrip(0)
	if b.Finish(200, 1, time.Second) {
		t.Fatal("nil builder retained an event")
	}
	sc := b.Clock()
	if sc != nil {
		t.Fatal("nil builder handed out a clock")
	}
	start := sc.Start()
	sc.Lap(StageScore, start)
	if sc.Stage(StageScore) != 0 {
		t.Fatal("nil clock accumulated time")
	}
	if l.Snapshot() != nil || l.StageTotals() != nil || l.Threshold() != 0 {
		t.Fatal("nil log returned data")
	}

	ctx := context.Background()
	if From(ctx) != nil || ClockFrom(ctx) != nil {
		t.Fatal("bare context yielded a builder")
	}
	if NewContext(ctx, nil) != ctx {
		t.Fatal("NewContext(nil builder) allocated a context node")
	}
}

// TestContextCarriage round-trips the builder through a context.
func TestContextCarriage(t *testing.T) {
	l := New(Config{Capacity: 4})
	b := l.Begin("GET", "/")
	ctx := NewContext(context.Background(), b)
	if From(ctx) != b {
		t.Fatal("builder lost in context")
	}
	if ClockFrom(ctx) != b.Clock() {
		t.Fatal("clock lost in context")
	}
}

// TestTraceIDString pins the fixed-width hex rendering.
func TestTraceIDString(t *testing.T) {
	for id, want := range map[uint64]string{
		0:              "0000000000000000",
		0x2a:           "000000000000002a",
		0xdeadbeef1234: "0000deadbeef1234",
	} {
		if got := TraceIDString(id); got != want {
			t.Fatalf("TraceIDString(%#x) = %q, want %q", id, got, want)
		}
	}
}

// TestWindowDecay proves the rolling window halves instead of growing
// without bound, keeping the threshold responsive to the recent past.
func TestWindowDecay(t *testing.T) {
	l := New(Config{Capacity: 4, MinCount: 10, TailFactor: 1})
	for i := 0; i < decayEvery+10; i++ {
		finish(l, 200, time.Millisecond, nil)
	}
	l.mu.Lock()
	total := l.latTotal
	l.mu.Unlock()
	if total >= decayEvery {
		t.Fatalf("window total %d did not decay below %d", total, decayEvery)
	}
	if got := l.Threshold(); got != time.Millisecond {
		t.Fatalf("threshold after decay = %v, want 1ms", got)
	}
}
