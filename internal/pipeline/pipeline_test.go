package pipeline

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

func appendEngine(name, mark string) Engine {
	return EngineFunc{EngineName: name, Fn: func(c *cas.CAS) error {
		c.SetMetadata("trace", c.Metadata("trace")+mark)
		return nil
	}}
}

func TestPipelineRunsEnginesInOrder(t *testing.T) {
	p, err := New(appendEngine("a", "A"), appendEngine("b", "B"), appendEngine("c", "C"))
	if err != nil {
		t.Fatal(err)
	}
	c := cas.New("doc")
	if err := p.Process(c); err != nil {
		t.Fatal(err)
	}
	if c.Metadata("trace") != "ABC" {
		t.Fatalf("trace = %q", c.Metadata("trace"))
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty pipeline accepted")
	}
	if _, err := New(nil); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(EngineFunc{EngineName: "", Fn: func(*cas.CAS) error { return nil }}); err == nil {
		t.Error("unnamed engine accepted")
	}
	if _, err := New(appendEngine("x", "1"), appendEngine("x", "2")); err == nil {
		t.Error("duplicate engine names accepted")
	}
}

func TestPipelineErrorWrapsEngineName(t *testing.T) {
	boom := errors.New("boom")
	p, _ := New(appendEngine("ok", "A"), EngineFunc{EngineName: "fails", Fn: func(*cas.CAS) error { return boom }})
	err := p.Process(cas.New("doc"))
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "fails") {
		t.Fatalf("error does not name the engine: %v", err)
	}
}

func TestRunStreamsCollection(t *testing.T) {
	p, _ := New(appendEngine("a", "A"))
	reader := &SliceReader{CASes: []*cas.CAS{cas.New("1"), cas.New("2"), cas.New("3")}}
	var seen []string
	n, err := p.Run(reader, ConsumerFunc(func(c *cas.CAS) error {
		seen = append(seen, c.Text())
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(seen) != 3 {
		t.Fatalf("n=%d seen=%v", n, seen)
	}
	for _, c := range reader.CASes {
		if c.Metadata("trace") != "A" {
			t.Fatal("engine did not run on all documents")
		}
	}
}

func TestRunConsumerError(t *testing.T) {
	p, _ := New(appendEngine("a", "A"))
	reader := &SliceReader{CASes: []*cas.CAS{cas.New("1"), cas.New("2")}}
	bad := errors.New("consumer bad")
	n, err := p.Run(reader, ConsumerFunc(func(c *cas.CAS) error { return bad }))
	if !errors.Is(err, bad) || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestRunNilConsumer(t *testing.T) {
	p, _ := New(appendEngine("a", "A"))
	n, err := p.Run(&SliceReader{CASes: []*cas.CAS{cas.New("1")}}, nil)
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestEnginesNames(t *testing.T) {
	p, _ := New(appendEngine("a", "A"), appendEngine("b", "B"))
	got := p.Engines()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("engines = %v", got)
	}
}

// TestRunCancellationStopsAtDocumentBoundary: a context cancelled mid-run
// stops the pipeline before the next document is pulled, returning the
// stats accumulated so far and an error chaining to context.Canceled.
func TestRunCancellationStopsAtDocumentBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	processed := 0
	tripwire := EngineFunc{EngineName: "tripwire", Fn: func(c *cas.CAS) error {
		processed++
		if processed == 2 {
			cancel() // cancel mid-run: documents 3..5 must never start
		}
		return nil
	}}
	p, err := New(tripwire)
	if err != nil {
		t.Fatal(err)
	}
	reader := &SliceReader{CASes: []*cas.CAS{
		cas.New("1"), cas.New("2"), cas.New("3"), cas.New("4"), cas.New("5"),
	}}
	stats, err := p.RunWithConfig(ctx, reader, nil, RunConfig{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want chain to context.Canceled", err)
	}
	if processed != 2 {
		t.Errorf("engine ran %d times, want 2 (no documents after cancel)", processed)
	}
	if stats.Read != 2 || stats.Processed != 2 {
		t.Errorf("stats = %+v, want Read=2 Processed=2", stats)
	}
}

// TestRunRecordsSpansAndMetrics: a traced run produces the span hierarchy
// run → document → engine and the pipeline counters.
func TestRunRecordsSpansAndMetrics(t *testing.T) {
	slow := EngineFunc{EngineName: "slow", Fn: func(c *cas.CAS) error {
		time.Sleep(time.Millisecond)
		return nil
	}}
	p, err := New(appendEngine("a", "A"), slow)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	reader := &SliceReader{CASes: []*cas.CAS{cas.New("1"), cas.New("2"), cas.New("3")}}
	stats, err := p.RunWithConfig(context.Background(), reader, nil, RunConfig{Metrics: reg, Tracer: tr})
	if err != nil || stats.Processed != 3 {
		t.Fatalf("stats=%+v err=%v", stats, err)
	}
	if got := reg.Counter(MetricDocumentsTotal).Value(); got != 3 {
		t.Errorf("documents counter = %d, want 3", got)
	}
	if got := reg.Counter(MetricDeadLettersTotal).Value(); got != 0 {
		t.Errorf("dead-letter counter = %d, want 0", got)
	}

	byName := map[string]obs.SpanStat{}
	for _, s := range tr.Stats() {
		byName[s.Name] = s
	}
	if byName["pipeline.run"].Count != 1 || byName["pipeline.document"].Count != 3 {
		t.Fatalf("run/document spans: %+v", byName)
	}
	if byName["engine:a"].Count != 3 || byName["engine:slow"].Count != 3 {
		t.Fatalf("engine spans: %+v", byName)
	}
	if byName["engine:slow"].Total < 3*time.Millisecond {
		t.Errorf("engine:slow total = %v, want >= 3ms", byName["engine:slow"].Total)
	}
	// Structural check on the recorded spans: every engine span is parented
	// by a document span, every document span by the single run span.
	ids := map[uint64]string{}
	for _, s := range tr.Snapshot() {
		ids[s.SpanID] = s.Name
	}
	for _, s := range tr.Snapshot() {
		switch s.Name {
		case "pipeline.run":
			if s.ParentID != 0 {
				t.Errorf("run span has parent %d", s.ParentID)
			}
		case "pipeline.document":
			if ids[s.ParentID] != "pipeline.run" {
				t.Errorf("document span parented by %q", ids[s.ParentID])
			}
		default:
			if ids[s.ParentID] != "pipeline.document" {
				t.Errorf("engine span parented by %q", ids[s.ParentID])
			}
		}
	}
}

// TestSpanReportReproducesTimedTotals: the aggregated span table carries
// the same per-engine document counts and error tallies the retired Timed
// wrapper reported, rendered slowest first.
func TestSpanReportReproducesTimedTotals(t *testing.T) {
	boom := errors.New("x")
	p, _ := New(
		appendEngine("a", "A"),
		EngineFunc{EngineName: "flaky", Fn: func(c *cas.CAS) error {
			if c.Text() == "bad" {
				return boom
			}
			return nil
		}},
	)
	tr := obs.NewTracer(64)
	reader := &SliceReader{CASes: []*cas.CAS{cas.New("1"), cas.New("bad"), cas.New("2")}}
	stats, err := p.RunWithConfig(context.Background(), reader, nil, RunConfig{
		Tracer:     tr,
		DeadLetter: func(DeadLetter) error { return nil },
	})
	if err != nil || stats.Processed != 2 || stats.DeadLettered != 1 {
		t.Fatalf("stats=%+v err=%v", stats, err)
	}
	rows := EngineStats(tr.Stats())
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	byName := map[string]obs.SpanStat{}
	for _, s := range rows {
		byName[s.Name] = s
	}
	if byName["a"].Count != 3 || byName["a"].Errors != 0 {
		t.Errorf("engine a stat = %+v", byName["a"])
	}
	if byName["flaky"].Count != 3 || byName["flaky"].Errors != 1 {
		t.Errorf("engine flaky stat = %+v", byName["flaky"])
	}
	var sb strings.Builder
	PrintSpanReport(&sb, tr.Stats())
	out := sb.String()
	if !strings.Contains(out, "flaky") || !strings.Contains(out, "per document") {
		t.Fatalf("report:\n%s", out)
	}
	if strings.Contains(out, "pipeline.run") {
		t.Fatalf("report leaks non-engine spans:\n%s", out)
	}
}

// TestRunObsDeadLetterEvents: dead letters and circuit breaks surface as
// counters and structured log lines.
func TestRunObsDeadLetterEvents(t *testing.T) {
	boom := errors.New("boom")
	p, _ := New(EngineFunc{EngineName: "f", Fn: func(*cas.CAS) error { return boom }})
	reg := obs.NewRegistry()
	var logged strings.Builder
	cfg := RunConfig{
		DeadLetter:  func(DeadLetter) error { return nil },
		ErrorBudget: 2,
		Metrics:     reg,
		Logger:      obs.NewLogger(&logged, obs.LevelInfo),
	}
	reader := &SliceReader{CASes: []*cas.CAS{cas.New("1"), cas.New("2"), cas.New("3")}}
	_, err := p.RunWithConfig(context.Background(), reader, nil, cfg)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v", err)
	}
	if got := reg.Counter(MetricDeadLettersTotal).Value(); got != 2 {
		t.Errorf("dead-letter counter = %d, want 2", got)
	}
	if got := reg.Counter(MetricCircuitBreaksTotal).Value(); got != 1 {
		t.Errorf("circuit-break counter = %d, want 1", got)
	}
	out := logged.String()
	if !strings.Contains(out, `msg="document dead-lettered"`) || !strings.Contains(out, "engine=f") {
		t.Errorf("missing dead-letter event:\n%s", out)
	}
	if !strings.Contains(out, `msg="circuit breaker tripped"`) {
		t.Errorf("missing circuit-break event:\n%s", out)
	}
}

// TestRegisterMetricsPreTouch: families render at zero before any run, so
// a scraper sees the inventory from process start.
func TestRegisterMetricsPreTouch(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		MetricDocumentsTotal, MetricDeadLettersTotal, MetricCircuitBreaksTotal,
	} {
		if !strings.Contains(sb.String(), name+" 0") {
			t.Errorf("exposition missing %s at zero:\n%s", name, sb.String())
		}
	}
}

// TestProcessDisabledObsZeroAllocs proves the acceptance bound: with
// observability disabled (nil registry/tracer), Process allocates nothing.
func TestProcessDisabledObsZeroAllocs(t *testing.T) {
	p, _ := New(EngineFunc{EngineName: "noop", Fn: func(*cas.CAS) error { return nil }})
	c := cas.New("doc")
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := p.Process(c); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Process with disabled observability allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkProcessObsDisabled is the hot path without observability; its
// allocs/op must stay 0 (see TestProcessDisabledObsZeroAllocs).
func BenchmarkProcessObsDisabled(b *testing.B) {
	p, _ := New(EngineFunc{EngineName: "noop", Fn: func(*cas.CAS) error { return nil }})
	c := cas.New("doc")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Process(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcessObsEnabled quantifies the cost of live tracing on the
// same path for comparison against the disabled baseline.
func BenchmarkProcessObsEnabled(b *testing.B) {
	p, _ := New(EngineFunc{EngineName: "noop", Fn: func(*cas.CAS) error { return nil }})
	tr := obs.NewTracer(1024)
	c := cas.New("doc")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := tr.Start(nil, "bench")
		if err := p.process(c, tr, root); err != nil {
			b.Fatal(err)
		}
		root.End(nil)
	}
}

// TestCircuitBreakerTriggersFlightBundle: a tripped error-budget breaker
// is a hard anomaly — the flight recorder wired through RunConfig.Flight
// captures a diagnostic bundle attributing the failing document.
func TestCircuitBreakerTriggersFlightBundle(t *testing.T) {
	boom := errors.New("boom")
	p, _ := New(EngineFunc{EngineName: "f", Fn: func(*cas.CAS) error { return boom }})
	fr := flight.New(flight.Config{
		Dir:         t.TempDir(),
		Logger:      obs.NewLogger(io.Discard, obs.LevelError),
		MinInterval: -1,
	})
	defer fr.Close()
	cfg := RunConfig{
		DeadLetter:  func(DeadLetter) error { return nil },
		ErrorBudget: 2,
		Flight:      fr,
	}
	reader := &SliceReader{CASes: []*cas.CAS{cas.New("1"), cas.New("2"), cas.New("3")}}
	if _, err := p.RunWithConfig(context.Background(), reader, nil, cfg); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v", err)
	}
	bdir := fr.LastBundleDir()
	if bdir == "" {
		t.Fatal("circuit trip did not produce a flight bundle")
	}
	b, err := flight.ReadBundle(bdir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reason != flight.ReasonCircuitBreaker {
		t.Fatalf("bundle reason = %q", b.Reason)
	}
	if b.Details["consecutive"] != "2" || !strings.Contains(b.Details["err"], "boom") {
		t.Fatalf("bundle details = %v", b.Details)
	}
}

// TestRunHeartbeatsStallGuard: each document read re-arms the stall guard
// and the guard is disarmed when the run returns, so a completed run can
// never fire a stale stall trigger.
func TestRunHeartbeatsStallGuard(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	fr := flight.New(flight.Config{
		Dir:           t.TempDir(),
		Clock:         clock,
		Logger:        obs.NewLogger(io.Discard, obs.LevelError),
		StallDeadline: time.Minute,
		MinInterval:   -1,
	})
	defer fr.Close()
	p, _ := New(appendEngine("a", "x"))
	reader := &SliceReader{CASes: []*cas.CAS{cas.New("1"), cas.New("2")}}
	if _, err := p.RunWithConfig(context.Background(), reader, nil, RunConfig{Flight: fr}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Hour)
	fr.Tick(now)
	if got := fr.LastBundleDir(); got != "" {
		t.Fatalf("completed run left an armed stall guard: %s", got)
	}
}
