package repl

import (
	"context"
	"errors"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/reldb"
	"repro/internal/vfs"
)

// Defaults for zero Config fields.
const (
	DefaultPollInterval = 2 * time.Millisecond
	DefaultRetryBackoff = 5 * time.Millisecond
	DefaultMaxBackoff   = 250 * time.Millisecond
)

// neverSynced is the apply lag reported before the first successful
// bootstrap: effectively infinite, so any staleness bound excludes the
// replica until it has state.
const neverSynced = time.Duration(1 << 62)

// Config wires a Replica.
type Config struct {
	// ID names the replica in metrics, health, and logs.
	ID string
	// Link is the transport to the primary (required).
	Link Link
	// Dir places the replica's own reldb instance behind the vfs.FS seam;
	// empty means in-memory (the default — a replica's durability story IS
	// the primary's WAL plus re-sync, so local durability is optional).
	Dir string
	// FS is the filesystem for a dir-backed replica (default the real
	// one). Sync is its durability policy.
	FS   vfs.FS
	Sync reldb.SyncPolicy
	// PollInterval is the tail cadence when caught up; RetryBackoff is the
	// initial retry delay after a link fault, doubling up to MaxBackoff.
	PollInterval time.Duration
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// Clock is the injected time source (default time.Now); apply lag and
	// the staleness bound are judged through it.
	Clock func() time.Time
	// Observability, nil-safe: repl_* metrics (label "replica") and
	// structured events.
	Metrics *obs.Registry
	Logger  *obs.Logger
}

// Replica tails a primary's WAL into its own reldb instance and serves
// the knowledge base loaded from it. The apply loop runs in one goroutine
// between Start and Stop. It loads the knowledge base into a kb.Memory at
// bootstrap and again after every batch whose frames touched the KB
// tables, so serving never queries the database. Every serving accessor
// (Ready, Store, ApplyLag, Generation) is safe for concurrent use and
// keeps answering during a re-sync — the old state is an exact, merely
// stale, prefix of the primary's history, so serving it never violates
// the divergence contract.
type Replica struct {
	cfg   Config
	clock func() time.Time

	lagSeconds *obs.Gauge
	frames     *obs.Counter
	bytes      *obs.Counter
	resyncs    *obs.Counter
	linkErrs   *obs.Counter
	log        *obs.Logger

	mu       sync.Mutex
	db       *reldb.DB  //qatk:guardedby mu — current applied state (nil before first bootstrap / after Crash)
	mem      *kb.Memory //qatk:guardedby mu — knowledge base loaded from db (nil when db has no KB tables)
	gen      uint64     //qatk:guardedby mu — generation being tailed
	offset   int64      //qatk:guardedby mu — last-applied WAL offset (the resume point)
	synced   bool       //qatk:guardedby mu — bootstrapped and not marked for re-sync
	caughtAt time.Time  //qatk:guardedby mu — last time the tail drained to the primary's head

	runMu  sync.Mutex
	cancel context.CancelFunc //qatk:guardedby runMu
	done   chan struct{}      //qatk:guardedby runMu
}

// New builds a replica over cfg. Call Start to begin replication.
func New(cfg Config) (*Replica, error) {
	if cfg.Link == nil {
		return nil, errors.New("repl: Config.Link required")
	}
	if cfg.ID == "" {
		cfg.ID = "replica"
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultPollInterval
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Metrics == nil {
		// A nil registry hands out nil (no-op) series, but the replica's own
		// counters double as state the loop and tests read back (Resyncs);
		// keep them real even when the caller doesn't export metrics.
		cfg.Metrics = obs.NewRegistry()
	}
	label := obs.L("replica", cfg.ID)
	return &Replica{
		cfg:        cfg,
		clock:      cfg.Clock,
		lagSeconds: cfg.Metrics.Gauge(MetricApplyLagSeconds, label),
		frames:     cfg.Metrics.Counter(MetricAppliedFramesTotal, label),
		bytes:      cfg.Metrics.Counter(MetricAppliedBytesTotal, label),
		resyncs:    cfg.Metrics.Counter(MetricResyncsTotal, label),
		linkErrs:   cfg.Metrics.Counter(MetricLinkErrorsTotal, label),
		log:        cfg.Logger,
	}, nil
}

// ID reports the replica's name.
func (r *Replica) ID() string { return r.cfg.ID }

// Ready reports whether the replica can serve knowledge-base reads: it
// has bootstrapped at least once and its state carries the KB tables.
// Staleness is a separate axis, reported by ApplyLag.
func (r *Replica) Ready() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mem != nil
}

// Synced reports whether the replica is bootstrapped and tailing (false
// during a pending re-sync, even while old state still serves).
func (r *Replica) Synced() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.synced
}

// Generation reports the primary generation the replica last applied.
func (r *Replica) Generation() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

// Offset reports the last-applied WAL offset (the resume point).
func (r *Replica) Offset() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.offset
}

// ApplyLag reports how far the applied state trails the primary: the
// time since the tail last drained the log on a successful poll. A
// replica that never bootstrapped reports an effectively infinite lag.
func (r *Replica) ApplyLag() time.Duration {
	r.mu.Lock()
	caughtAt := r.caughtAt
	r.mu.Unlock()
	if caughtAt.IsZero() {
		return neverSynced
	}
	return r.clock().Sub(caughtAt)
}

// Store returns the replica's current knowledge base (nil when not
// Ready). The returned Memory is never mutated: reloads and re-syncs swap
// in a new one, so callers re-fetch per query rather than caching it.
func (r *Replica) Store() *kb.Memory {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mem
}

// DB returns the replica's current database (digest checks, tests).
func (r *Replica) DB() *reldb.DB {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.db
}

// Resyncs reports how many full snapshot re-syncs the replica performed.
func (r *Replica) Resyncs() uint64 { return r.resyncs.Value() }

// Start launches the apply loop: bootstrap from a snapshot, then tail.
// Idempotent while running.
func (r *Replica) Start() {
	r.runMu.Lock()
	defer r.runMu.Unlock()
	if r.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	done := make(chan struct{})
	r.done = done
	//lint:ignore qatklint/goroleak the apply loop's join is the done channel closed on exit: Stop/Crash/Close cancel ctx and block on <-done before returning
	go func() {
		defer close(done)
		// Label the apply loop so the continuous profiler's goroutine and
		// CPU profiles attribute replication work to a concrete replica
		// (debug=1 goroutine dumps show `labels: {"repl_id":..., "repl_role":...}`).
		pprof.Do(ctx, pprof.Labels("repl_id", r.cfg.ID, "repl_role", "apply"), r.run)
	}()
}

// Stop halts the apply loop and waits for it to exit. The replica keeps
// its state and keeps serving (going stale); Start resumes tailing.
func (r *Replica) Stop() {
	r.runMu.Lock()
	cancel, done := r.cancel, r.done
	r.cancel, r.done = nil, nil
	r.runMu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	<-done
}

// Crash models kill -9 for the chaos matrix: the apply loop halts
// mid-whatever and the replica's state is discarded without a graceful
// close, so the only way back is a full snapshot re-sync via Start.
func (r *Replica) Crash() {
	r.Stop()
	r.mu.Lock()
	r.db, r.mem = nil, nil
	r.gen, r.offset = 0, 0
	r.synced = false
	r.caughtAt = time.Time{}
	r.mu.Unlock()
}

// Close stops the apply loop and releases the replica's database.
func (r *Replica) Close() {
	r.Stop()
	r.mu.Lock()
	db := r.db
	r.db, r.mem = nil, nil
	r.synced = false
	r.mu.Unlock()
	if db != nil {
		db.Close()
	}
}

// sleepCtx waits d or until ctx is cancelled; false means cancelled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// run is the apply loop: (re-)bootstrap whenever unsynced, then tail.
// Link faults back off and retry at the same offset; re-sync conditions
// (generation mismatch, corruption, local apply failure) drop back to
// bootstrap while the old state keeps serving.
func (r *Replica) run(ctx context.Context) {
	backoff := r.cfg.RetryBackoff
	for ctx.Err() == nil {
		if !r.Synced() {
			if err := r.bootstrap(ctx); err != nil {
				if ctx.Err() != nil {
					return
				}
				r.linkErrs.Inc()
				r.log.Warn("replica bootstrap failed",
					obs.L("replica", r.cfg.ID), obs.L("err", err.Error()))
				if !sleepCtx(ctx, backoff) {
					return
				}
				backoff = min(backoff*2, r.cfg.MaxBackoff)
				continue
			}
			backoff = r.cfg.RetryBackoff
		}
		err := r.tailOnce(ctx)
		switch {
		case err == nil:
			backoff = r.cfg.RetryBackoff
		case ctx.Err() != nil:
			return
		case NeedsResync(err) || errors.Is(err, reldb.ErrCorruptFrame) || errors.Is(err, reldb.ErrFailed):
			// The log moved on without us, a shipped frame failed its local
			// CRC/decode (link-level truncation), or our own instance
			// latched: the tail position is dead. Mark for re-sync; the
			// current state is a consistent stale prefix and keeps serving
			// until the fresh snapshot swaps in.
			r.resyncs.Inc()
			r.log.Warn("replica re-syncing from snapshot",
				obs.L("replica", r.cfg.ID), obs.L("err", err.Error()))
			r.mu.Lock()
			r.synced = false
			r.mu.Unlock()
		default:
			r.linkErrs.Inc()
			r.log.Warn("replication link fault; retrying from last offset",
				obs.L("replica", r.cfg.ID), obs.L("err", err.Error()))
			if !sleepCtx(ctx, backoff) {
				return
			}
			backoff = min(backoff*2, r.cfg.MaxBackoff)
		}
	}
}

// bootstrap streams a snapshot into a fresh instance and swaps it in,
// relabeling the goroutine for the duration so profiles separate the
// bulk snapshot load from steady-state tailing.
func (r *Replica) bootstrap(ctx context.Context) (err error) {
	pprof.Do(ctx, pprof.Labels("repl_id", r.cfg.ID, "repl_role", "bootstrap"), func(ctx context.Context) {
		err = r.bootstrapOnce(ctx)
	})
	return err
}

func (r *Replica) bootstrapOnce(ctx context.Context) error {
	snap, err := r.cfg.Link.Snapshot(ctx)
	if err != nil {
		return err
	}
	db, err := r.openFreshDB()
	if err != nil {
		return err
	}
	for _, raw := range snap.Frames {
		if _, err := db.ApplyFrame(raw); err != nil {
			db.Close()
			return err
		}
	}
	mem := loadKB(db)
	now := r.clock()
	r.mu.Lock()
	r.db, r.mem = db, mem
	r.gen, r.offset = snap.Gen, snap.WALOffset
	r.synced = true
	r.caughtAt = now
	r.mu.Unlock()
	r.lagSeconds.Set(0)
	r.log.Info("replica bootstrapped",
		obs.L("replica", r.cfg.ID), obs.L("gen", formatUint(snap.Gen)))
	return nil
}

// openFreshDB produces the empty instance a bootstrap fills. A dir-backed
// replica retires its live instance first and restarts from clean files;
// an in-memory replica just builds a new one (the old keeps serving until
// the swap).
func (r *Replica) openFreshDB() (*reldb.DB, error) {
	if r.cfg.Dir == "" {
		return reldb.Open("")
	}
	r.mu.Lock()
	old := r.db
	r.db, r.mem = nil, nil
	r.mu.Unlock()
	if old != nil {
		old.Close()
	}
	fsys := r.cfg.FS
	if fsys == nil {
		fsys = vfs.OS()
	}
	if err := reldb.ResetDir(fsys, r.cfg.Dir); err != nil {
		return nil, err
	}
	return reldb.OpenWith(r.cfg.Dir, reldb.Options{FS: fsys, Sync: r.cfg.Sync})
}

// tailOnce pulls one batch of frames and applies them. A batch whose
// frames touched the KB tables reloads the knowledge base and swaps it in
// before the catch-up instant moves, so a replica reporting itself caught
// up serves what it applied; batches touching only other tables
// (assignments, audit rows) leave the loaded Memory alone. A short batch
// means the tail drained to the primary's current head: note the
// catch-up instant (the lag reference point) and idle one poll interval.
func (r *Replica) tailOnce(ctx context.Context) error {
	r.mu.Lock()
	gen, offset, db := r.gen, r.offset, r.db
	r.mu.Unlock()
	frames, err := r.cfg.Link.ReadWAL(ctx, gen, offset, DefaultMaxBatch)
	if err != nil {
		return err
	}
	reload := false
	for _, fr := range frames {
		tables, err := db.ApplyFrame(fr.Raw)
		if err != nil {
			return err
		}
		reload = reload || slices.Contains(tables, kb.TableNodes) || slices.Contains(tables, kb.TableCodeFreq)
		r.mu.Lock()
		r.offset = fr.End
		r.mu.Unlock()
		r.noteApplied(len(fr.Raw))
	}
	if reload {
		mem := loadKB(db)
		r.mu.Lock()
		r.mem = mem
		r.mu.Unlock()
	}
	if len(frames) < DefaultMaxBatch {
		now := r.clock()
		r.mu.Lock()
		r.caughtAt = now
		r.mu.Unlock()
		r.lagSeconds.Set(0)
		if len(frames) == 0 {
			sleepCtx(ctx, r.cfg.PollInterval)
		}
	} else {
		r.lagSeconds.Set(r.ApplyLag().Seconds())
	}
	return nil
}

// loadKB loads the knowledge base from the replica's applied state. A
// replicated database without the KB tables still replicates; it just
// has nothing to serve the classifier (nil).
func loadKB(db *reldb.DB) *kb.Memory {
	mem, err := kb.OpenDB(db)
	if err != nil {
		return nil
	}
	return mem
}

// noteApplied records one applied frame on the replication counters.
// It sits on the apply hot path and must not allocate.
//
//qatk:hotpath
func (r *Replica) noteApplied(rawBytes int) {
	r.frames.Inc()
	r.bytes.Add(uint64(rawBytes))
}

// formatUint renders a generation without fmt (log labels want strings).
func formatUint(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
