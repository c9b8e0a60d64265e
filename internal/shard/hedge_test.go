package shard

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kb"
)

// Satellite: hedged-request hygiene. The losing attempt's context must be
// cancelled once the winner returns, and the router must not leak
// goroutines — asserted by bracketing the whole exercise with goroutine
// counts.

// recordingHook observes every attempt's context so the test can assert
// cancellation, and makes the first attempt slow enough that the hedge
// always wins.
type recordingHook struct {
	mu       sync.Mutex
	attempts []attemptRecord
}

type attemptRecord struct {
	shard, attempt int
	ctx            context.Context
}

func (h *recordingHook) hook(ctx context.Context, shard, attempt int) error {
	h.mu.Lock()
	h.attempts = append(h.attempts, attemptRecord{shard, attempt, ctx})
	h.mu.Unlock()
	if attempt == 1 {
		// Losing attempt: stall until cancelled or a long fallback fires.
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(500 * time.Millisecond):
			return nil
		}
	}
	return nil
}

func (h *recordingHook) record(shard, attempt int) (attemptRecord, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, r := range h.attempts {
		if r.shard == shard && r.attempt == attempt {
			return r, true
		}
	}
	return attemptRecord{}, false
}

func TestHedgeCancelsLosingAttempt(t *testing.T) {
	before := runtime.NumGoroutine()

	src := buildKB(5, 12, 10, 250)
	hook := &recordingHook{}
	r := newTestRouter(t, src, 4, func(cfg *Config) {
		cfg.HedgeAfter = 2 * time.Millisecond
		cfg.ShardTimeout = time.Second
		cfg.Hook = hook.hook
	})

	part := "P004"
	if !src.KnownPart(part) {
		t.Fatalf("fixture part %s not in knowledge base", part)
	}
	res, err := r.Query(context.Background(), part, []string{"f03", "f11", "f27"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hedged {
		t.Fatal("query was not hedged")
	}
	if res.Degraded {
		t.Fatal("hedged query unexpectedly degraded")
	}

	// The losing first attempt's context must be cancelled promptly after
	// the hedge wins — not left to run out its 500ms stall.
	loser, ok := hook.record(kb.PartOwner(part, 4), 1)
	if !ok {
		t.Fatal("first attempt never reached the fault hook")
	}
	select {
	case <-loser.ctx.Done():
	case <-time.After(200 * time.Millisecond):
		t.Fatal("losing attempt's context was not cancelled")
	}
	if err := loser.ctx.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("losing attempt ctx.Err() = %v, want context.Canceled", err)
	}

	// Closing the router must reclaim every attempt goroutine.
	r.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after close", before, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHedgeNotStarvedByWedgedPrimaries: every attempt runs on its own
// goroutine, so concurrent queries whose primaries are all wedged are each
// answered by their hedge after HedgeAfter, not after the shard timeout.
func TestHedgeNotStarvedByWedgedPrimaries(t *testing.T) {
	src := buildKB(5, 12, 10, 250)
	r := newTestRouter(t, src, 1, func(cfg *Config) {
		cfg.HedgeAfter = 2 * time.Millisecond
		cfg.ShardTimeout = 400 * time.Millisecond
		cfg.Hook = wedgePrimaries
	})
	part, feats := "P004", []string{"f03", "f11", "f27"}
	want := core.New(src, core.Jaccard{}).Recommend(part, feats)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			res, err := r.Query(context.Background(), part, feats)
			elapsed := time.Since(start)
			switch {
			case err != nil:
				t.Error(err)
			case !res.Hedged || res.Degraded:
				t.Errorf("hedged=%v degraded=%v, want true/false", res.Hedged, res.Degraded)
			case !reflect.DeepEqual(res.Codes, want):
				t.Errorf("hedged ranking diverged\n got %v\nwant %v", res.Codes, want)
			case elapsed >= 100*time.Millisecond:
				t.Errorf("query took %v behind a wedged primary, want the hedge to answer well inside the 400ms shard timeout", elapsed)
			}
		}()
	}
	wg.Wait()
}

// TestCloseWithQueryInFlight: Close may run while a query is in flight
// (questd's drain can time out). It returns only once the running attempt
// has left the fault hook, and the hedge the query launches after Close
// fails instead of outliving it.
func TestCloseWithQueryInFlight(t *testing.T) {
	src := buildKB(5, 12, 10, 250)
	entered := make(chan struct{}, 1)
	var exited atomic.Bool
	r := newTestRouter(t, src, 1, func(cfg *Config) {
		cfg.HedgeAfter = 20 * time.Millisecond
		cfg.ShardTimeout = 50 * time.Millisecond
		cfg.Hook = func(ctx context.Context, shard, attempt int) error {
			entered <- struct{}{}
			<-ctx.Done()
			exited.Store(true)
			return ctx.Err()
		}
	})
	done := make(chan error, 1)
	go func() {
		_, err := r.Query(context.Background(), "P004", []string{"f03"})
		done <- err
	}()
	<-entered
	r.Close()
	if !exited.Load() {
		t.Error("Close returned while an attempt was still in the fault hook")
	}
	if err := <-done; !errors.Is(err, ErrAllShardsFailed) {
		t.Fatalf("query across Close = %v, want ErrAllShardsFailed", err)
	}
}
