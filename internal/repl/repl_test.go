package repl_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kb"
	"repro/internal/reldb"
	"repro/internal/repl"
)

// newPrimary opens a durable primary in a temp dir with the KB schema and
// a small persisted knowledge base.
func newPrimary(t *testing.T) *reldb.DB {
	t.Helper()
	db, err := reldb.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	if err := kb.CreateTables(db); err != nil {
		t.Fatalf("create tables: %v", err)
	}
	m := kb.NewMemory()
	m.AddBundle("P100", "E1", []string{"f1", "f2"})
	m.AddBundle("P100", "E2", []string{"f2", "f3"})
	m.AddBundle("P200", "E1", []string{"f1"})
	if err := kb.Persist(db, m); err != nil {
		t.Fatalf("persist: %v", err)
	}
	return db
}

func newReplica(t *testing.T, link repl.Link, cfg repl.Config) *repl.Replica {
	t.Helper()
	cfg.Link = link
	if cfg.ID == "" {
		cfg.ID = "r0"
	}
	r, err := repl.New(cfg)
	if err != nil {
		t.Fatalf("new replica: %v", err)
	}
	t.Cleanup(r.Close)
	return r
}

func digest(t *testing.T, db *reldb.DB) string {
	t.Helper()
	d, err := db.StateDigest()
	if err != nil {
		t.Fatalf("state digest: %v", err)
	}
	return d
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// insertNodes appends n extra knowledge nodes to the primary, each its
// own commit (its own WAL frame).
func insertNodes(t *testing.T, db *reldb.DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := db.Insert(kb.TableNodes, reldb.Row{
			nil, fmt.Sprintf("P%03d", i%7), "E9", "fx",
		}); err != nil {
			t.Fatalf("insert node: %v", err)
		}
	}
}

// converged reports whether the replica has applied everything the
// primary committed (offset caught up) — digest equality is then checked
// once, outside the polling loop, to avoid racing the writer.
func converged(t *testing.T, r *repl.Replica, primary *reldb.DB) {
	t.Helper()
	ex, err := primary.ExportState()
	if err != nil {
		t.Fatalf("export state: %v", err)
	}
	waitFor(t, "replica to converge", func() bool {
		return r.Synced() && r.Generation() == ex.Gen && r.Offset() >= ex.WALOffset
	})
	if got, want := digest(t, r.DB()), digest(t, primary); got != want {
		t.Fatalf("replica digest %s != primary %s", got, want)
	}
}

func TestReplicaBootstrapServesKB(t *testing.T) {
	db := newPrimary(t)
	p, err := repl.NewPrimary(db)
	if err != nil {
		t.Fatalf("new primary: %v", err)
	}
	r := newReplica(t, p, repl.Config{})
	r.Start()
	waitFor(t, "replica ready", r.Ready)
	converged(t, r, db)
	store := r.Store()
	if store == nil {
		t.Fatal("Ready replica returned nil store")
	}
	if got, want := store.NodeCount(), 3; got != want {
		t.Fatalf("replica NodeCount = %d, want %d", got, want)
	}
	if !store.KnownPart("P100") || store.KnownPart("P999") {
		t.Fatal("replica KnownPart disagrees with primary KB")
	}
	if lag := r.ApplyLag(); lag > time.Minute {
		t.Fatalf("fresh replica reports lag %v", lag)
	}
}

// TestReplicaServesKBRowsCommittedAfterBootstrap: the knowledge base a
// replica serves follows what it applies — node and frequency rows the
// primary commits after the bootstrap are served once tailed, not only
// stored in the replica's database.
func TestReplicaServesKBRowsCommittedAfterBootstrap(t *testing.T) {
	db := newPrimary(t)
	p, _ := repl.NewPrimary(db)
	r := newReplica(t, p, repl.Config{})
	r.Start()
	waitFor(t, "replica ready", r.Ready)
	if r.Store().KnownPart("P300") {
		t.Fatal("replica knows part P300 before the primary committed it")
	}

	tx := db.Begin()
	tx.Insert(kb.TableNodes, reldb.Row{nil, "P300", "E7", "f2\x01f9"})
	tx.Insert(kb.TableCodeFreq, reldb.Row{nil, "P300", "E7", int64(2)})
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit KB rows: %v", err)
	}
	converged(t, r, db)
	waitFor(t, "replica to serve the new KB rows", func() bool {
		return r.Store().KnownPart("P300")
	})
	store := r.Store()
	if got, want := store.NodeCount(), 4; got != want {
		t.Fatalf("replica NodeCount = %d, want %d", got, want)
	}
	var added []*kb.Node
	for _, n := range store.AllNodes() {
		if n.PartID == "P300" {
			added = append(added, n)
		}
	}
	if len(added) != 1 || added[0].ErrorCode != "E7" || len(added[0].Features) != 2 {
		t.Fatalf("nodes of the new part = %+v, want its one E7 node", added)
	}
	if got := store.CodeFrequencies("P300"); len(got) != 1 || got[0] != (kb.CodeCount{Code: "E7", Count: 2}) {
		t.Fatalf("code frequencies for the new part = %v, want [{E7 2}]", got)
	}
	if got, want := store.BundleCount(), 5; got != want {
		t.Fatalf("replica BundleCount = %d, want %d", got, want)
	}
}

// TestReplicaKeepsKBAcrossOtherTables: frames that touch only non-KB
// tables (assignments, audit rows) do not reload the knowledge base —
// the replica keeps handing out the very Memory it loaded.
func TestReplicaKeepsKBAcrossOtherTables(t *testing.T) {
	db := newPrimary(t)
	if err := db.CreateTable(reldb.Schema{
		Name:       "audit",
		Columns:    []reldb.Column{{Name: "id", Type: reldb.TInt}, {Name: "note", Type: reldb.TString}},
		PrimaryKey: "id",
	}); err != nil {
		t.Fatalf("create audit table: %v", err)
	}
	p, _ := repl.NewPrimary(db)
	r := newReplica(t, p, repl.Config{})
	r.Start()
	waitFor(t, "replica ready", r.Ready)
	before := r.Store()
	for i := 0; i < 20; i++ {
		if _, err := db.Insert("audit", reldb.Row{nil, "assigned"}); err != nil {
			t.Fatalf("insert audit row: %v", err)
		}
	}
	converged(t, r, db)
	if r.Store() != before {
		t.Fatal("non-KB frames reloaded the replica's knowledge base")
	}
	insertNodes(t, db, 1)
	converged(t, r, db)
	waitFor(t, "KB frame to reload", func() bool { return r.Store() != before })
}

func TestReplicaRefusesInMemoryPrimary(t *testing.T) {
	db, err := reldb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := repl.NewPrimary(db); !errors.Is(err, reldb.ErrNoWAL) {
		t.Fatalf("NewPrimary(in-memory) = %v, want ErrNoWAL", err)
	}
}

func TestReplicaTailsLiveWrites(t *testing.T) {
	db := newPrimary(t)
	p, _ := repl.NewPrimary(db)
	r := newReplica(t, p, repl.Config{})
	r.Start()
	waitFor(t, "bootstrap", r.Synced)
	insertNodes(t, db, 120)
	converged(t, r, db)
	if r.Resyncs() != 0 {
		t.Fatalf("clean tailing performed %d re-syncs", r.Resyncs())
	}
}

func TestReplicaNeverSyncedLooksInfinitelyStale(t *testing.T) {
	db := newPrimary(t)
	p, _ := repl.NewPrimary(db)
	r := newReplica(t, p, repl.Config{})
	// Never started: not ready, and lag far beyond any plausible bound.
	if r.Ready() {
		t.Fatal("unstarted replica claims Ready")
	}
	if lag := r.ApplyLag(); lag < 24*time.Hour {
		t.Fatalf("unstarted replica lag = %v, want effectively infinite", lag)
	}
	if r.Store() != nil {
		t.Fatal("unstarted replica returned a store")
	}
}

// flakyLink fails every call whose ordinal matches failEvery, proving the
// replica retries at the same offset rather than re-syncing.
type flakyLink struct {
	inner     repl.Link
	calls     atomic.Int64
	failEvery int64
}

func (f *flakyLink) Snapshot(ctx context.Context) (*repl.Snapshot, error) {
	if f.calls.Add(1)%f.failEvery == 0 {
		return nil, errors.New("flaky: snapshot dropped")
	}
	return f.inner.Snapshot(ctx)
}

func (f *flakyLink) ReadWAL(ctx context.Context, gen uint64, offset int64, max int) ([]repl.Frame, error) {
	if f.calls.Add(1)%f.failEvery == 0 {
		return nil, errors.New("flaky: link dropped")
	}
	return f.inner.ReadWAL(ctx, gen, offset, max)
}

func TestReplicaRetriesLinkFaultsAtSameOffset(t *testing.T) {
	db := newPrimary(t)
	p, _ := repl.NewPrimary(db)
	link := &flakyLink{inner: p, failEvery: 2} // every other call fails
	r := newReplica(t, link, repl.Config{RetryBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	r.Start()
	waitFor(t, "bootstrap through flaky link", r.Synced)
	insertNodes(t, db, 60)
	converged(t, r, db)
	if r.Resyncs() != 0 {
		t.Fatalf("link faults caused %d re-syncs; want retry at same offset", r.Resyncs())
	}
}

func TestReplicaResyncsAfterCheckpoint(t *testing.T) {
	db := newPrimary(t)
	p, _ := repl.NewPrimary(db)
	r := newReplica(t, p, repl.Config{})
	r.Start()
	waitFor(t, "bootstrap", r.Synced)
	insertNodes(t, db, 10)
	converged(t, r, db)

	// A checkpoint bumps the generation and resets the log; the replica's
	// tail position is dead and must come back via snapshot re-sync.
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	insertNodes(t, db, 10)
	waitFor(t, "re-sync", func() bool { return r.Resyncs() >= 1 })
	converged(t, r, db)
	if got, want := r.Generation(), db.Generation(); got != want {
		t.Fatalf("replica generation %d, primary %d", got, want)
	}
}

func TestReplicaCrashRestartsFromSnapshot(t *testing.T) {
	db := newPrimary(t)
	p, _ := repl.NewPrimary(db)
	r := newReplica(t, p, repl.Config{})
	r.Start()
	waitFor(t, "bootstrap", r.Synced)
	insertNodes(t, db, 20)
	converged(t, r, db)

	r.Crash()
	if r.Ready() {
		t.Fatal("crashed replica claims Ready")
	}
	if lag := r.ApplyLag(); lag < 24*time.Hour {
		t.Fatalf("crashed replica lag = %v, want effectively infinite", lag)
	}
	insertNodes(t, db, 20) // primary moves on while the replica is down

	r.Start()
	waitFor(t, "re-bootstrap", r.Ready)
	converged(t, r, db)
}

func TestReplicaDirBackedResync(t *testing.T) {
	db := newPrimary(t)
	p, _ := repl.NewPrimary(db)
	r := newReplica(t, p, repl.Config{Dir: t.TempDir(), Sync: reldb.SyncNever})
	r.Start()
	waitFor(t, "bootstrap", r.Synced)
	insertNodes(t, db, 10)
	converged(t, r, db)

	// Force the dir-backed re-sync path: the replica must retire its live
	// instance, reset its files, and rebuild from the snapshot.
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	insertNodes(t, db, 10)
	waitFor(t, "re-sync", func() bool { return r.Resyncs() >= 1 })
	converged(t, r, db)
}

func TestReplicaStopIsIdempotentAndRestartable(t *testing.T) {
	db := newPrimary(t)
	p, _ := repl.NewPrimary(db)
	r := newReplica(t, p, repl.Config{})
	r.Stop() // never started: no-op
	r.Start()
	r.Start() // idempotent while running
	waitFor(t, "bootstrap", r.Synced)
	r.Stop()
	r.Stop()
	if !r.Ready() {
		t.Fatal("stopped replica should keep serving its (stale) state")
	}
	insertNodes(t, db, 5)
	r.Start()
	converged(t, r, db)
}
