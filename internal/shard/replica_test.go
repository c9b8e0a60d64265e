package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/obs"
)

// fakeReplica is a canned ReplicaTarget serving the full KB with a fixed
// apply lag.
type fakeReplica struct {
	id    string
	ready bool
	lag   time.Duration
	gen   uint64
	store *kb.Memory
}

func (f *fakeReplica) ID() string              { return f.id }
func (f *fakeReplica) Ready() bool             { return f.ready }
func (f *fakeReplica) ApplyLag() time.Duration { return f.lag }
func (f *fakeReplica) Generation() uint64      { return f.gen }
func (f *fakeReplica) Store() *kb.Memory {
	if !f.ready {
		return nil
	}
	return f.store
}

// wedgePrimaries blocks every attempt-1 sub-query until its attempt
// context expires; hedges (and hookless replica attempts) proceed.
func wedgePrimaries(ctx context.Context, shard, attempt int) error {
	if attempt == 1 {
		<-ctx.Done()
		return ctx.Err()
	}
	return nil
}

// failAll fails every primary-shard attempt immediately (the latched-
// primary model: the shard answers, instantly, with an error).
func failAll(ctx context.Context, shard, attempt int) error {
	return errors.New("primary latched")
}

func TestHedgePrefersFreshReplicaOverStale(t *testing.T) {
	src := buildKB(21, 12, 8, 200)
	stale := &fakeReplica{id: "r-stale", ready: true, lag: 10 * time.Second, store: src}
	fresh := &fakeReplica{id: "r-fresh", ready: true, lag: time.Millisecond, store: src}
	r := newTestRouter(t, src, 3, func(cfg *Config) {
		cfg.Hook = wedgePrimaries
		cfg.HedgeAfter = 5 * time.Millisecond
		cfg.Replicas = []ReplicaTarget{stale, fresh}
		cfg.Metrics = obs.NewRegistry()
	})
	single := core.New(src, core.Jaccard{})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5; i++ {
		part := fmt.Sprintf("P%03d", rng.Intn(12))
		feats := queryFeatures(rng)
		res, err := r.Query(context.Background(), part, feats)
		if err != nil {
			t.Fatalf("query %s: %v", part, err)
		}
		if !res.Hedged || !res.Replica {
			t.Fatalf("expected hedged replica answer, got hedged=%v replica=%v", res.Hedged, res.Replica)
		}
		if res.Stale {
			t.Fatal("fresh replica hedge flagged stale")
		}
		if res.Degraded {
			t.Fatal("replica-hedged answer flagged degraded")
		}
		if want := single.Recommend(part, feats); !reflect.DeepEqual(res.Codes, want) {
			t.Fatalf("replica-served ranking diverged\n got %v\nwant %v", res.Codes, want)
		}
	}
	if got := r.shards[0].replicaReads.Value() + r.shards[1].replicaReads.Value() + r.shards[2].replicaReads.Value(); got == 0 {
		t.Fatal("replica reads counter never advanced")
	}
}

func TestHedgeAvoidsStaleReplica(t *testing.T) {
	src := buildKB(22, 12, 8, 200)
	stale := &fakeReplica{id: "r-stale", ready: true, lag: 10 * time.Second, store: src}
	r := newTestRouter(t, src, 2, func(cfg *Config) {
		cfg.Hook = wedgePrimaries
		cfg.HedgeAfter = 5 * time.Millisecond
		cfg.Replicas = []ReplicaTarget{stale}
	})
	res, err := r.Query(context.Background(), "P001", []string{"f01", "f02"})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	// The only replica lags beyond the bound, so the hedge must fall back
	// to a second attempt at the shard itself — not quietly serve stale.
	if !res.Hedged {
		t.Fatal("expected a hedged answer")
	}
	if res.Replica || res.Stale {
		t.Fatalf("stale replica served a hedge: replica=%v stale=%v", res.Replica, res.Stale)
	}
}

func TestRescueServesStaleWithFlag(t *testing.T) {
	src := buildKB(23, 12, 8, 200)
	stale := &fakeReplica{id: "r-stale", ready: true, lag: 10 * time.Second, store: src}
	r := newTestRouter(t, src, 3, func(cfg *Config) {
		cfg.Hook = failAll
		cfg.HedgeAfter = 5 * time.Millisecond
		cfg.Replicas = []ReplicaTarget{stale}
		cfg.Metrics = obs.NewRegistry()
	})
	single := core.New(src, core.Jaccard{})
	part, feats := "P002", []string{"f03", "f07", "f11"}
	res, err := r.Query(context.Background(), part, feats)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if !res.Replica || !res.Stale {
		t.Fatalf("latched primaries should rescue via stale replica: replica=%v stale=%v", res.Replica, res.Stale)
	}
	if res.Degraded {
		t.Fatal("rescued answer flagged degraded")
	}
	if want := single.Recommend(part, feats); !reflect.DeepEqual(res.Codes, want) {
		t.Fatalf("rescued ranking diverged\n got %v\nwant %v", res.Codes, want)
	}
	if got := r.stale.Value(); got == 0 {
		t.Fatal("stale responses counter never advanced")
	}
}

func TestRescueScatterBitIdentical(t *testing.T) {
	src := buildKB(24, 12, 8, 200)
	fresh := &fakeReplica{id: "r0", ready: true, lag: 0, store: src}
	r := newTestRouter(t, src, 3, func(cfg *Config) {
		cfg.Hook = failAll
		cfg.Replicas = []ReplicaTarget{fresh}
	})
	single := core.New(src, core.Jaccard{})
	// A part no shard owns: the scatter path, every sub-query rescued.
	part, feats := "PX99", []string{"f03", "f07"}
	res, err := r.Query(context.Background(), part, feats)
	if err != nil {
		t.Fatalf("scatter query: %v", err)
	}
	if !res.Scatter || !res.Replica {
		t.Fatalf("expected replica-rescued scatter, got scatter=%v replica=%v", res.Scatter, res.Replica)
	}
	if res.Stale {
		t.Fatal("fresh replica rescue flagged stale")
	}
	if want := single.Recommend(part, feats); !reflect.DeepEqual(res.Codes, want) {
		t.Fatalf("scatter-rescued ranking diverged\n got %v\nwant %v", res.Codes, want)
	}
}

func TestRescueRequiresReadyReplica(t *testing.T) {
	src := buildKB(25, 12, 8, 120)
	down := &fakeReplica{id: "r-down", ready: false, lag: 0, store: src}
	r := newTestRouter(t, src, 2, func(cfg *Config) {
		cfg.Hook = failAll
		cfg.Replicas = []ReplicaTarget{down}
	})
	if _, err := r.Query(context.Background(), "P001", []string{"f01"}); !errors.Is(err, ErrAllShardsFailed) {
		t.Fatalf("query with only an unready replica = %v, want ErrAllShardsFailed", err)
	}
}

func TestBreakerOpenStillRescues(t *testing.T) {
	src := buildKB(26, 12, 8, 120)
	fresh := &fakeReplica{id: "r0", ready: true, lag: 0, store: src}
	r := newTestRouter(t, src, 1, func(cfg *Config) {
		cfg.Hook = failAll
		cfg.BreakerBudget = 1
		cfg.Replicas = []ReplicaTarget{fresh}
	})
	ctx := context.Background()
	// First query trips the single shard's breaker (and is rescued).
	if _, err := r.Query(ctx, "P001", []string{"f01"}); err != nil {
		t.Fatalf("first query: %v", err)
	}
	if r.shards[0].breaker.State() != StateOpen {
		t.Fatalf("breaker state = %s, want open (rescue must not reset it)", r.shards[0].breaker.State())
	}
	// With the breaker open, sub-queries skip the primary entirely and go
	// straight to the replica.
	res, err := r.Query(ctx, "P001", []string{"f01"})
	if err != nil {
		t.Fatalf("breaker-open query: %v", err)
	}
	if !res.Replica {
		t.Fatal("breaker-open query not served by replica")
	}
}

func TestReplicaHealthReport(t *testing.T) {
	src := buildKB(27, 6, 4, 60)
	fresh := &fakeReplica{id: "r0", ready: true, lag: time.Millisecond, gen: 4}
	lagging := &fakeReplica{id: "r1", ready: true, lag: 10 * time.Second, gen: 3}
	r := newTestRouter(t, src, 2, func(cfg *Config) {
		cfg.Replicas = []ReplicaTarget{fresh, lagging}
	})
	hs := r.ReplicaHealth()
	if len(hs) != 2 {
		t.Fatalf("ReplicaHealth len = %d, want 2", len(hs))
	}
	if hs[0].ID != "r0" || hs[0].Stale || !hs[0].Ready || hs[0].LastAppliedGeneration != 4 {
		t.Fatalf("fresh replica health = %+v", hs[0])
	}
	if hs[1].ID != "r1" || !hs[1].Stale || hs[1].LastAppliedGeneration != 3 {
		t.Fatalf("lagging replica health = %+v", hs[1])
	}
	if hs[1].ApplyLagSeconds < 9 {
		t.Fatalf("lagging replica ApplyLagSeconds = %v, want ~10", hs[1].ApplyLagSeconds)
	}
}
