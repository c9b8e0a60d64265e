package repl_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
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
	"repro/internal/reldb"
	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/vfs"
)

// The replication chaos matrix (acceptance criteria): for each of {link
// drop, link delay, truncate-mid-frame, replica wedge, primary fsync
// latch, replica crash mid-apply}, the router keeps answering — degraded
// or flagged stale at worst, never divergent — and every replica that
// falls behind or loses state re-syncs to a state digest equal to the
// primary's at the same generation. Faults are assigned (not drawn)
// through faults.FaultyLink modes and the vfs fault filesystem, so every
// path is asserted, not sampled.

// chaosMaxLag is the router's staleness bound in this matrix: generous
// enough that healthy 1ms-poll replicas never trip it, small enough that
// a broken link crosses it within one sleep.
const chaosMaxLag = 100 * time.Millisecond

// chaosEventsTable is a non-KB table driven by the chaos writers: its
// inserts advance the primary's WAL (so replication has real frames to
// ship, tear, and re-sync) without changing the knowledge base — every
// query stays bit-comparable to the single classifier throughout.
const chaosEventsTable = "chaos_events"

// chaosFeatures is the fixed query feature set, as in the shard matrix.
var chaosFeatures = []string{"f01", "f07", "f21", "f33"}

// linkHook mirrors the shard matrix's switchable fault hook for the
// primary-shard attempts that replicas must rescue.
type linkHook struct {
	mu sync.Mutex
	fn func(ctx context.Context, shard, attempt int) error
}

func (s *linkHook) set(fn func(ctx context.Context, shard, attempt int) error) {
	s.mu.Lock()
	s.fn = fn
	s.mu.Unlock()
}

func (s *linkHook) hook(ctx context.Context, shardID, attempt int) error {
	s.mu.Lock()
	fn := s.fn
	s.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn(ctx, shardID, attempt)
}

// chaosKB seeds the same deterministic knowledge base the shard matrix
// uses.
func chaosKB(seed int64, parts, codes, bundles int) *kb.Memory {
	rng := rand.New(rand.NewSource(seed))
	m := kb.NewMemory()
	for i := 0; i < bundles; i++ {
		part := fmt.Sprintf("P%03d", rng.Intn(parts))
		code := fmt.Sprintf("E%03d", rng.Intn(codes))
		n := 3 + rng.Intn(6)
		set := map[string]bool{}
		for len(set) < n {
			set[fmt.Sprintf("f%02d", rng.Intn(50))] = true
		}
		features := make([]string, 0, len(set))
		for f := range set {
			features = append(features, f)
		}
		sort.Strings(features)
		m.AddBundle(part, code, features)
	}
	return m
}

// chaosRig is one replication-chaos fixture: a durable primary on the
// fault filesystem, two in-memory replicas behind independently faultable
// links, and a 4-shard router using both as hedge/failover targets.
type chaosRig struct {
	ffs      *vfs.FaultFS
	db       *reldb.DB
	src      *kb.Memory
	links    [2]*faults.FaultyLink
	reps     [2]*repl.Replica
	router   *shard.Router
	hook     *linkHook
	reg      *obs.Registry
	recorder *flight.Recorder
	reqLog   *reqlog.Log
	seq      atomic.Uint64

	ownedPart string
	owner     int
}

func newChaosRig(t *testing.T) *chaosRig {
	t.Helper()
	rig := &chaosRig{
		src:  chaosKB(7, 20, 15, 400),
		hook: &linkHook{},
		reg:  obs.NewRegistry(),
		ffs:  vfs.NewFaultFS(vfs.FaultConfig{Seed: 1}),
	}
	db, err := reldb.OpenWith("primary", reldb.Options{FS: rig.ffs, Sync: reldb.SyncAlways})
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}
	rig.db = db
	t.Cleanup(func() { db.Close() })
	if err := kb.CreateTables(db); err != nil {
		t.Fatalf("create tables: %v", err)
	}
	if err := db.CreateTable(reldb.Schema{
		Name: chaosEventsTable,
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.TInt},
			{Name: "note", Type: reldb.TString},
		},
		PrimaryKey: "id",
	}); err != nil {
		t.Fatalf("create %s: %v", chaosEventsTable, err)
	}
	if err := kb.Persist(db, rig.src); err != nil {
		t.Fatalf("persist: %v", err)
	}

	p, err := repl.NewPrimary(db)
	if err != nil {
		t.Fatalf("new primary link: %v", err)
	}
	for i := range rig.reps {
		rig.links[i] = faults.NewFaultyLink(p)
		rig.reps[i] = newReplica(t, rig.links[i], repl.Config{
			ID:           fmt.Sprintf("r%d", i),
			PollInterval: time.Millisecond,
			RetryBackoff: time.Millisecond,
			MaxBackoff:   5 * time.Millisecond,
			Metrics:      rig.reg,
		})
		rig.reps[i].Start()
	}
	for _, r := range rig.reps {
		waitFor(t, r.ID()+" fresh", func() bool {
			return r.Ready() && r.ApplyLag() < chaosMaxLag
		})
	}

	rig.recorder = flight.New(flight.Config{
		Dir:         t.TempDir(),
		Registry:    rig.reg,
		MinInterval: -1, // every trigger fires; tests assert exact counts
	})
	t.Cleanup(rig.recorder.Close)
	rig.reqLog = reqlog.New(reqlog.Config{SampleAll: true})
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
			Requests: rig.reqLog.Snapshot(),
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

	rig.router, err = shard.New(shard.Config{
		Stores:          shard.PartitionStores(rig.src, 4),
		ShardTimeout:    30 * time.Millisecond,
		HedgeAfter:      3 * time.Millisecond,
		BreakerBudget:   2,
		BreakerCooldown: time.Second,
		Hook:            rig.hook.hook,
		Metrics:         rig.reg,
		Flight:          rig.recorder,
		Replicas:        []shard.ReplicaTarget{rig.reps[0], rig.reps[1]},
		MaxApplyLag:     chaosMaxLag,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.router.Close)

	rig.ownedPart = "P003"
	if !rig.src.KnownPart(rig.ownedPart) {
		t.Fatalf("fixture part %s not in knowledge base", rig.ownedPart)
	}
	rig.owner = kb.PartOwner(rig.ownedPart, 4)
	return rig
}

// addEvents commits n WAL frames that leave the knowledge base untouched.
func (rig *chaosRig) addEvents(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := rig.db.Insert(chaosEventsTable, reldb.Row{nil, "event"}); err != nil {
			t.Fatalf("insert chaos event: %v", err)
		}
	}
}

// query runs one router query under a generous request budget, assembling
// a wide event for the CHAOS_ARTIFACT ring dump.
func (rig *chaosRig) query(t *testing.T, part string) (*shard.Result, error) {
	t.Helper()
	budget := 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	b := rig.reqLog.Begin("CHAOS", t.Name())
	b.Query(part, len(chaosFeatures))
	ctx = reqlog.NewContext(ctx, b)
	start := time.Now()
	res, err := rig.router.Query(ctx, part, chaosFeatures)
	elapsed := time.Since(start)
	status := 200
	if err != nil {
		status = 503
	}
	if res != nil {
		b.Outcome(res.Degraded, res.Hedged, res.Scatter, res.FailedShards)
		b.ReplicaServed(res.Replica, res.Stale)
	}
	b.Finish(status, rig.seq.Add(1), elapsed)
	if elapsed >= budget {
		t.Fatalf("query overran the request deadline: %v >= %v", elapsed, budget)
	}
	return res, err
}

// single is the healthy single-classifier ranking every chaos answer must
// stay bit-identical to.
func (rig *chaosRig) single(part string) []core.ScoredCode {
	return core.New(rig.src, core.Jaccard{}).Recommend(part, chaosFeatures)
}

func (rig *chaosRig) bundles(reason string) uint64 {
	return rig.reg.Counter(flight.MetricFlightBundlesTotal, obs.L("reason", reason)).Value()
}

// TestChaosReplLinkDrop: with both replication links severed and every
// primary attempt failing, the router still answers from a replica — the
// answer flagged stale (the replicas missed WAL frames beyond the bound)
// but bit-identical to the healthy ranking. Healing the links converges
// both replicas back to the primary's digest with zero re-syncs: a
// dropped link is retried at the same offset, never re-bootstrapped.
func TestChaosReplLinkDrop(t *testing.T) {
	rig := newChaosRig(t)
	for _, l := range rig.links {
		l.SetMode(faults.LinkDrop)
	}
	rig.addEvents(t, 3) // the log moves on without the replicas
	time.Sleep(2 * chaosMaxLag)
	rig.hook.set(func(ctx context.Context, shard, attempt int) error {
		return errors.New("chaos: primary down")
	})

	res, err := rig.query(t, rig.ownedPart)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replica || !res.Stale || res.Degraded {
		t.Fatalf("replica=%v stale=%v degraded=%v, want true/true/false",
			res.Replica, res.Stale, res.Degraded)
	}
	if want := rig.single(rig.ownedPart); !reflect.DeepEqual(res.Codes, want) {
		t.Errorf("stale rescue diverged from healthy ranking:\n got %v\nwant %v", res.Codes, want)
	}

	// Heal: links restore, primaries answer, replicas catch up in place.
	rig.hook.set(nil)
	for _, l := range rig.links {
		l.SetMode(faults.LinkHealthy)
	}
	for _, r := range rig.reps {
		converged(t, r, rig.db)
		if n := r.Resyncs(); n != 0 {
			t.Errorf("%s re-synced %d times over a dropped link; want retry at same offset", r.ID(), n)
		}
	}
	res, err = rig.query(t, rig.ownedPart)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stale || res.Degraded {
		t.Fatalf("healed query: stale=%v degraded=%v, want false/false", res.Stale, res.Degraded)
	}
	if want := rig.single(rig.ownedPart); !reflect.DeepEqual(res.Codes, want) {
		t.Errorf("healed answer diverged:\n got %v\nwant %v", res.Codes, want)
	}
}

// TestChaosReplLinkDelay: a congested link slows shipping but corrupts
// nothing — the replicas converge to the primary's digest through the
// delay with zero re-syncs, and queries stay exact throughout.
func TestChaosReplLinkDelay(t *testing.T) {
	rig := newChaosRig(t)
	for _, l := range rig.links {
		l.SetMode(faults.LinkDelay)
		l.SetDelay(2 * time.Millisecond)
	}
	rig.addEvents(t, 40)
	res, err := rig.query(t, rig.ownedPart)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.Stale {
		t.Fatalf("degraded=%v stale=%v under link delay, want false/false", res.Degraded, res.Stale)
	}
	if want := rig.single(rig.ownedPart); !reflect.DeepEqual(res.Codes, want) {
		t.Errorf("ranking diverged under link delay:\n got %v\nwant %v", res.Codes, want)
	}
	for _, r := range rig.reps {
		converged(t, r, rig.db)
		if n := r.Resyncs(); n != 0 {
			t.Errorf("%s re-synced %d times under pure delay", r.ID(), n)
		}
	}
}

// TestChaosReplTruncateMidFrame: a link tearing the final shipped frame
// must never half-apply — the replica detects the torn frame at its own
// CRC gate, answers with a full snapshot re-sync, and converges to the
// primary's exact digest once the link heals. The untouched replica never
// re-syncs, and the router keeps serving exact answers throughout.
func TestChaosReplTruncateMidFrame(t *testing.T) {
	rig := newChaosRig(t)
	rig.links[0].SetMode(faults.LinkTruncate)
	rig.addEvents(t, 5)
	waitFor(t, "torn frame to force a re-sync", func() bool {
		return rig.reps[0].Resyncs() >= 1
	})

	res, err := rig.query(t, rig.ownedPart)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("router degraded while one replication link tears frames")
	}
	if want := rig.single(rig.ownedPart); !reflect.DeepEqual(res.Codes, want) {
		t.Errorf("ranking diverged during replica re-sync:\n got %v\nwant %v", res.Codes, want)
	}

	rig.links[0].SetMode(faults.LinkHealthy)
	converged(t, rig.reps[0], rig.db)
	if got, want := rig.reps[0].Generation(), rig.db.Generation(); got != want {
		t.Errorf("re-synced replica generation %d, primary %d", got, want)
	}
	if n := rig.reps[1].Resyncs(); n != 0 {
		t.Errorf("healthy-link replica re-synced %d times", n)
	}
}

// TestChaosReplReplicaWedge: a black-holed link wedges r0's apply loop —
// its lag grows without bound, the replica-lag hard trigger fires after K
// consecutive breaching watchdog ticks, and a hedged query under wedged
// primaries is served by the *fresh* replica (never the wedged one, never
// flagged stale). An operator restart un-wedges r0 and it catches up.
func TestChaosReplReplicaWedge(t *testing.T) {
	rig := newChaosRig(t)
	rig.recorder.WatchReplicaLag(func() (time.Duration, string) {
		worst, id := time.Duration(0), ""
		for _, r := range rig.reps {
			if lag := r.ApplyLag(); lag > worst {
				worst, id = lag, r.ID()
			}
		}
		return worst, id
	}, chaosMaxLag, 3)

	rig.links[0].SetMode(faults.LinkWedge)
	rig.addEvents(t, 3)
	time.Sleep(2 * chaosMaxLag) // r0 is now beyond the staleness bound
	waitFor(t, "r1 to stay fresh", func() bool { return rig.reps[1].ApplyLag() < chaosMaxLag })

	// Three consecutive breaching ticks fire exactly one hard trigger.
	base := time.Unix(1_700_000_000, 0)
	for i := 0; i < 3; i++ {
		rig.recorder.Tick(base.Add(time.Duration(i) * time.Second))
	}
	if n := rig.bundles(flight.ReasonReplicaLag); n != 1 {
		t.Errorf("replica-lag flight bundles = %d, want 1", n)
	}

	// Wedge every primary attempt: the hedge must pick the fresh replica.
	rig.hook.set(faults.ShardHook(map[int]faults.ShardFault{
		0: {Mode: faults.ShardWedge}, 1: {Mode: faults.ShardWedge},
		2: {Mode: faults.ShardWedge}, 3: {Mode: faults.ShardWedge},
	}))
	res, err := rig.query(t, rig.ownedPart)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replica || res.Stale || res.Degraded {
		t.Fatalf("replica=%v stale=%v degraded=%v, want true/false/false",
			res.Replica, res.Stale, res.Degraded)
	}
	if want := rig.single(rig.ownedPart); !reflect.DeepEqual(res.Codes, want) {
		t.Errorf("fresh-replica answer diverged:\n got %v\nwant %v", res.Codes, want)
	}

	// Heal. The wedged ReadWAL only returns when its run context dies, so
	// recovery is an operator restart: stop (cancels the wedged call),
	// restart, catch up.
	rig.hook.set(nil)
	rig.links[0].SetMode(faults.LinkHealthy)
	rig.reps[0].Stop()
	rig.reps[0].Start()
	converged(t, rig.reps[0], rig.db)
}

// TestChaosReplPrimaryFsyncLatch: a failed fsync latches the primary —
// the interrupted commit's mutation stays in its in-memory state and its
// WAL, future writes are refused — and both replicas converge to a digest
// equal to the latched primary's at the same generation, while the router
// keeps serving exact answers. No divergence: the replicas mirror exactly
// what the primary's log holds.
func TestChaosReplPrimaryFsyncLatch(t *testing.T) {
	rig := newChaosRig(t)
	rig.ffs.SetRates(1, 0, 0)
	if _, err := rig.db.Insert(chaosEventsTable, reldb.Row{nil, "latching"}); err == nil {
		t.Fatal("insert under FsyncFailRate=1 succeeded; want a latching failure")
	}
	rig.ffs.SetRates(0, 0, 0)
	if _, err := rig.db.Insert(chaosEventsTable, reldb.Row{nil, "refused"}); !errors.Is(err, reldb.ErrFailed) {
		t.Fatalf("write after latch = %v, want ErrFailed", err)
	}

	for _, r := range rig.reps {
		converged(t, r, rig.db)
		if got, want := r.Generation(), rig.db.Generation(); got != want {
			t.Errorf("%s generation %d, latched primary %d", r.ID(), got, want)
		}
	}
	res, err := rig.query(t, rig.ownedPart)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.Stale {
		t.Fatalf("degraded=%v stale=%v after primary latch, want false/false", res.Degraded, res.Stale)
	}
	if want := rig.single(rig.ownedPart); !reflect.DeepEqual(res.Codes, want) {
		t.Errorf("ranking diverged after primary latch:\n got %v\nwant %v", res.Codes, want)
	}
}

// TestChaosReplReplicaCrashMidApply: killing a replica in the middle of a
// live write stream loses its state entirely (kill -9, in-memory), the
// router keeps answering from the primaries and the surviving replica,
// and a restart re-bootstraps the crashed replica from a fresh snapshot
// to a digest equal to the primary's at the same generation.
func TestChaosReplReplicaCrashMidApply(t *testing.T) {
	rig := newChaosRig(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 80; i++ {
			if _, err := rig.db.Insert(chaosEventsTable, reldb.Row{nil, "stream"}); err != nil {
				t.Errorf("insert during stream: %v", err)
				return
			}
		}
	}()
	time.Sleep(2 * time.Millisecond) // land the crash inside the stream
	rig.reps[0].Crash()
	if rig.reps[0].Ready() {
		t.Fatal("crashed replica claims Ready")
	}

	res, err := rig.query(t, rig.ownedPart)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("router degraded with one crashed replica and healthy primaries")
	}
	if want := rig.single(rig.ownedPart); !reflect.DeepEqual(res.Codes, want) {
		t.Errorf("ranking diverged during replica crash:\n got %v\nwant %v", res.Codes, want)
	}

	<-done
	rig.reps[0].Start()
	waitFor(t, "crashed replica to re-bootstrap", rig.reps[0].Ready)
	for _, r := range rig.reps {
		converged(t, r, rig.db)
		if got, want := r.Generation(), rig.db.Generation(); got != want {
			t.Errorf("%s generation %d, primary %d", r.ID(), got, want)
		}
	}
}
