package shard

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/reqlog"
)

// The deterministic chaos matrix (acceptance criteria): for each of
// {slow, erroring, wedged} × {owning, non-owning}, the router returns
// within the request deadline, marks the response degraded when results
// are partial, trips and recovers the breaker, and a hedged query returns
// the fast attempt's answer with the slow attempt cancelled. Faults are
// assigned (not drawn) through internal/faults' shard modes, so every
// path is asserted, not sampled.

// switchHook is a FaultHook whose inner hook can be swapped at runtime —
// the chaos tests heal a shard to drive breaker recovery.
type switchHook struct {
	mu sync.Mutex
	fn func(ctx context.Context, shard, attempt int) error
}

func (s *switchHook) set(fn func(ctx context.Context, shard, attempt int) error) {
	s.mu.Lock()
	s.fn = fn
	s.mu.Unlock()
}

func (s *switchHook) hook(ctx context.Context, shardID, attempt int) error {
	s.mu.Lock()
	fn := s.fn
	s.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn(ctx, shardID, attempt)
}

// fakeClock is a mutex-guarded manual clock for breaker cooldowns.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// chaosEnv is one chaos-matrix fixture: a 4-shard router over a seeded
// knowledge base with a swappable fault hook, fake breaker clock, metric
// registry and flight recorder.
type chaosEnv struct {
	src      *kb.Memory
	router   *Router
	hook     *switchHook
	clock    *fakeClock
	reg      *obs.Registry
	recorder *flight.Recorder
	// reqLog retains every chaos query's wide event; when a chaos test
	// fails and CHAOS_ARTIFACT names a path, the ring is dumped there as
	// JSON so the failed run's per-shard attempt record survives CI.
	reqLog *reqlog.Log
	seq    atomic.Uint64
	// ownedPart is a part the knowledge base knows; owner is its shard.
	// unknownPart is owned by no shard (scatter); scatterVictim is a
	// non-owning shard in that scatter.
	ownedPart     string
	owner         int
	unknownPart   string
	scatterVictim int
}

func newChaosEnv(t *testing.T, mut func(*Config)) *chaosEnv {
	t.Helper()
	e := &chaosEnv{
		src:   buildKB(7, 20, 15, 400),
		hook:  &switchHook{},
		clock: &fakeClock{now: time.Unix(1_700_000_000, 0)},
		reg:   obs.NewRegistry(),
	}
	e.recorder = flight.New(flight.Config{
		Dir:         t.TempDir(),
		Registry:    e.reg,
		MinInterval: -1, // every trigger fires; tests assert exact counts
	})
	t.Cleanup(e.recorder.Close)
	e.reqLog = reqlog.New(reqlog.Config{SampleAll: true})
	t.Cleanup(func() {
		path := os.Getenv("CHAOS_ARTIFACT")
		if path == "" || !t.Failed() {
			return
		}
		// The dump is a single-file flight bundle so the standard reader
		// renders it: `qatk diagnose <path>`.
		dump := flight.Bundle{
			Schema:   flight.BundleSchema,
			Reason:   "chaos-test-failure",
			Time:     time.Now(),
			Requests: e.reqLog.Snapshot(),
		}
		data, err := json.MarshalIndent(dump, "", "  ")
		if err != nil {
			t.Logf("chaos artifact: marshal ring: %v", err)
			return
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Logf("chaos artifact: write %s: %v", path, err)
			return
		}
		t.Logf("chaos artifact: tail-sample ring written to %s", path)
	})
	cfg := Config{
		Stores:          PartitionStores(e.src, 4),
		ShardTimeout:    30 * time.Millisecond,
		HedgeAfter:      3 * time.Millisecond,
		BreakerBudget:   2,
		BreakerCooldown: time.Second,
		Hook:            e.hook.hook,
		Metrics:         e.reg,
		Flight:          e.recorder,
		Clock:           e.clock.Now,
	}
	if mut != nil {
		mut(&cfg)
	}
	var err error
	e.router, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.router.Close)

	e.ownedPart = "P003"
	if !e.src.KnownPart(e.ownedPart) {
		t.Fatalf("fixture part %s not in knowledge base", e.ownedPart)
	}
	e.owner = kb.PartOwner(e.ownedPart, 4)
	e.unknownPart = "PX99"
	if e.src.KnownPart(e.unknownPart) {
		t.Fatalf("fixture part %s unexpectedly known", e.unknownPart)
	}
	e.scatterVictim = (kb.PartOwner(e.unknownPart, 4) + 1) % 4
	return e
}

// query runs one router query under a generous request budget and asserts
// it returns within that deadline.
func (e *chaosEnv) query(t *testing.T, part string) (*Result, error) {
	t.Helper()
	budget := 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	// Every chaos query assembles a wide event so a failed matrix run can
	// ship its per-shard attempt record as the CHAOS_ARTIFACT ring dump.
	b := e.reqLog.Begin("CHAOS", t.Name())
	b.Query(part, 4)
	ctx = reqlog.NewContext(ctx, b)
	start := time.Now()
	res, err := e.router.Query(ctx, part, []string{"f01", "f07", "f21", "f33"})
	elapsed := time.Since(start)
	status := 200
	if err != nil {
		status = 503
	}
	if res != nil {
		b.Outcome(res.Degraded, res.Hedged, res.Scatter, res.FailedShards)
	}
	b.Finish(status, e.seq.Add(1), elapsed)
	if elapsed >= budget {
		t.Fatalf("query overran the request deadline: %v >= %v", elapsed, budget)
	}
	return res, err
}

func (e *chaosEnv) bundles(reason string) uint64 {
	return e.reg.Counter(flight.MetricFlightBundlesTotal, obs.L("reason", reason)).Value()
}

// TestChaosSlowShard: a slow primary attempt is rescued by the hedge — the
// response is the fast attempt's answer, bit-identical to the healthy
// ranking, not degraded — for both the owning shard of a known part and a
// non-owning shard in a scatter.
func TestChaosSlowShard(t *testing.T) {
	single := func(src kb.Store, part string) []core.ScoredCode {
		return core.New(src, core.Jaccard{}).Recommend(part, []string{"f01", "f07", "f21", "f33"})
	}
	t.Run("owning", func(t *testing.T) {
		e := newChaosEnv(t, nil)
		// Slow only the first attempt: the hedge runs on its own
		// goroutine and answers immediately.
		e.hook.set(faults.ShardHook(map[int]faults.ShardFault{
			e.owner: {Mode: faults.ShardSlow, Delay: 200 * time.Millisecond, FirstAttempts: 1},
		}))
		res, err := e.query(t, e.ownedPart)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded || !res.Hedged {
			t.Fatalf("degraded=%v hedged=%v, want false/true", res.Degraded, res.Hedged)
		}
		if want := single(e.src, e.ownedPart); !reflect.DeepEqual(res.Codes, want) {
			t.Errorf("hedged answer diverged from healthy ranking:\n got %v\nwant %v", res.Codes, want)
		}
		if wins := e.reg.Counter(MetricShardHedgeWinsTotal, obs.L("shard", strconv.Itoa(e.owner))).Value(); wins != 1 {
			t.Errorf("hedge wins = %d, want 1", wins)
		}
	})
	t.Run("non-owning", func(t *testing.T) {
		e := newChaosEnv(t, nil)
		e.hook.set(faults.ShardHook(map[int]faults.ShardFault{
			e.scatterVictim: {Mode: faults.ShardSlow, Delay: 200 * time.Millisecond, FirstAttempts: 1},
		}))
		res, err := e.query(t, e.unknownPart)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded || !res.Scatter || !res.Hedged {
			t.Fatalf("degraded=%v scatter=%v hedged=%v, want false/true/true",
				res.Degraded, res.Scatter, res.Hedged)
		}
		if want := single(e.src, e.unknownPart); !reflect.DeepEqual(res.Codes, want) {
			t.Errorf("hedged scatter diverged from healthy ranking:\n got %v\nwant %v", res.Codes, want)
		}
	})
}

// TestChaosErrorShard: an erroring shard degrades the response (partial
// results from the survivors), trips its breaker after the budget, and
// recovers through a half-open probe once healed.
func TestChaosErrorShard(t *testing.T) {
	t.Run("non-owning", func(t *testing.T) {
		e := newChaosEnv(t, nil)
		e.hook.set(faults.ShardHook(map[int]faults.ShardFault{
			e.scatterVictim: {Mode: faults.ShardError},
		}))
		res, err := e.query(t, e.unknownPart)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded || !res.Scatter {
			t.Fatalf("degraded=%v scatter=%v, want true/true", res.Degraded, res.Scatter)
		}
		if !reflect.DeepEqual(res.FailedShards, []int{e.scatterVictim}) {
			t.Errorf("failed shards = %v, want [%d]", res.FailedShards, e.scatterVictim)
		}
		if len(res.Codes) == 0 {
			t.Error("no codes from surviving shards")
		}
	})
	t.Run("owning-trip-and-recover", func(t *testing.T) {
		e := newChaosEnv(t, nil)
		e.hook.set(faults.ShardHook(map[int]faults.ShardFault{
			e.owner: {Mode: faults.ShardError},
		}))
		// Budget is 2 consecutive sub-query failures; each query fails the
		// owner once (hedge retry errors too = one sub-query failure).
		for i := 0; i < 2; i++ {
			res, err := e.query(t, e.ownedPart)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			if !res.Degraded || !res.Scatter {
				t.Fatalf("query %d: degraded=%v scatter=%v, want true/true", i, res.Degraded, res.Scatter)
			}
			if !reflect.DeepEqual(res.FailedShards, []int{e.owner}) {
				t.Fatalf("query %d: failed shards = %v, want [%d]", i, res.FailedShards, e.owner)
			}
		}
		if st := e.router.Health()[e.owner].State; st != StateOpen {
			t.Fatalf("breaker state after budget = %s, want %s", st, StateOpen)
		}
		if !e.router.Degraded() {
			t.Error("router not degraded with an open breaker")
		}
		if n := e.bundles(flight.ReasonCircuitBreaker); n != 1 {
			t.Errorf("circuit-breaker flight bundles = %d, want 1", n)
		}
		if opens := e.reg.Counter(MetricShardBreakerOpensTotal, obs.L("shard", strconv.Itoa(e.owner))).Value(); opens != 1 {
			t.Errorf("breaker opens = %d, want 1", opens)
		}
		// While open the owner is skipped outright: still degraded, fast.
		res, err := e.query(t, e.ownedPart)
		if err != nil || !res.Degraded {
			t.Fatalf("open-breaker query: res=%+v err=%v", res, err)
		}
		// Heal the shard, let the cooldown elapse: the half-open probe
		// succeeds, the breaker closes, and responses are exact again.
		e.hook.set(nil)
		e.clock.Advance(2 * time.Second)
		res, err = e.query(t, e.ownedPart)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded || res.Scatter {
			t.Fatalf("recovered query: degraded=%v scatter=%v, want false/false", res.Degraded, res.Scatter)
		}
		if st := e.router.Health()[e.owner].State; st != StateClosed {
			t.Errorf("breaker state after recovery = %s, want %s", st, StateClosed)
		}
		want := core.New(e.src, core.Jaccard{}).Recommend(e.ownedPart, []string{"f01", "f07", "f21", "f33"})
		if !reflect.DeepEqual(res.Codes, want) {
			t.Errorf("recovered ranking diverged:\n got %v\nwant %v", res.Codes, want)
		}
	})
}

// TestChaosWedgedShard: a wedged shard burns its per-shard deadline, the
// router still answers within the request budget from the survivors, the
// response is degraded, and the shard-stall hard trigger fires once
// (latched) until a success re-arms it.
func TestChaosWedgedShard(t *testing.T) {
	t.Run("owning", func(t *testing.T) {
		e := newChaosEnv(t, nil)
		e.hook.set(faults.ShardHook(map[int]faults.ShardFault{
			e.owner: {Mode: faults.ShardWedge},
		}))
		res, err := e.query(t, e.ownedPart)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded || !res.Scatter {
			t.Fatalf("degraded=%v scatter=%v, want true/true", res.Degraded, res.Scatter)
		}
		if !reflect.DeepEqual(res.FailedShards, []int{e.owner}) {
			t.Errorf("failed shards = %v, want [%d]", res.FailedShards, e.owner)
		}
		if n := e.bundles(flight.ReasonShardStall); n != 1 {
			t.Errorf("shard-stall flight bundles = %d, want 1", n)
		}
		// The stall trigger is latched: a second wedged query does not
		// fire another bundle.
		if _, err := e.query(t, e.ownedPart); err != nil {
			t.Fatal(err)
		}
		if n := e.bundles(flight.ReasonShardStall); n != 1 {
			t.Errorf("shard-stall flight bundles after second wedge = %d, want 1 (latched)", n)
		}
	})
	t.Run("non-owning", func(t *testing.T) {
		e := newChaosEnv(t, nil)
		e.hook.set(faults.ShardHook(map[int]faults.ShardFault{
			e.scatterVictim: {Mode: faults.ShardWedge},
		}))
		res, err := e.query(t, e.unknownPart)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded || !res.Scatter {
			t.Fatalf("degraded=%v scatter=%v, want true/true", res.Degraded, res.Scatter)
		}
		if !reflect.DeepEqual(res.FailedShards, []int{e.scatterVictim}) {
			t.Errorf("failed shards = %v, want [%d]", res.FailedShards, e.scatterVictim)
		}
	})
}

// TestChaosAllShardsFailed: when every shard is broken the router reports
// the one error it reserves for a query nobody answered.
func TestChaosAllShardsFailed(t *testing.T) {
	e := newChaosEnv(t, nil)
	e.hook.set(faults.ShardHook(map[int]faults.ShardFault{
		0: {Mode: faults.ShardError}, 1: {Mode: faults.ShardError},
		2: {Mode: faults.ShardError}, 3: {Mode: faults.ShardError},
	}))
	_, err := e.query(t, e.unknownPart)
	if !errors.Is(err, ErrAllShardsFailed) {
		t.Fatalf("err = %v, want ErrAllShardsFailed", err)
	}
}
