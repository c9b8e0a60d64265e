// Command questd serves the QUEST web application over a data directory
// produced by cmd/datagen (and, for the suggestion screens, classified by
// `qatk train` + `qatk classify`):
//
//	questd -data ./data -addr :8080
//
// Log in as "admin" (extended rights) or "expert".
//
// The server is hardened for unattended field-study deployments: request
// handlers run under panic recovery and a request timeout, the listener has
// read/write/idle timeouts, /healthz and /readyz expose liveness and
// readiness (including the degraded state of the §5.4 comparison screen),
// and SIGINT/SIGTERM drain in-flight requests for -shutdown-timeout before
// the process exits.
//
// Observability: /metrics serves a Prometheus text exposition (request
// rate/latency/in-flight, panics, timeouts, WAL activity, build_info, and
// the pre-registered pipeline families), structured key=value logs go to
// stderr (tune with -log-level, redirect with -log-file), and -debug-addr
// optionally serves net/http/pprof plus GET /debug/bundle on a separate
// listener. /debug/bundle answers one flight bundle assembled on demand
// — runtime, metric movement, spans, the retained wide events, the
// continuous-profiler ring (?cpu=1 adds a fresh CPU window), logs and
// goroutines — without writing anything; read it with
// `qatk diagnose http://localhost:6060`. questd binds whatever address
// -debug-addr names and the listener has no authentication, so bind it
// to a loopback address such as localhost:6060.
//
// Wide events: every request assembles one structured event along the
// whole serving path (stage timers, per-shard attempts, degradation).
// A tail sampler retains the interesting ones — slow against a rolling
// p99-proportional threshold, degraded, hedged, non-2xx, panicking —
// in a -req-ring sized ring; -req-sample N head-samples 1 in N requests
// regardless, and -exemplars attaches the retained requests' trace IDs
// to /metrics latency buckets as OpenMetrics exemplars.
//
// Flight recorder: -flight-dir arms a black-box recorder that retains
// recent spans, log lines, and metric deltas, and writes a diagnostic
// bundle file (read it with `qatk diagnose <file>`) when an anomaly
// fires — the request-duration histogram's p99 exceeding -slo-p99 for
// consecutive windows, a recovered handler panic, a reldb fsync-failure
// latch, or a goroutine-count spike.
//
// Continuous profiling: unless -prof-interval is 0, a background sampler
// captures a CPU window plus heap and goroutine summaries every
// -prof-interval into a -prof-ring sized ring, computing heap deltas
// between consecutive snapshots. Breach-class flight triggers freeze the
// ring (plus a fresh breach-window CPU profile) into the bundle's
// profiles section.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/bundle"
	"repro/internal/compare"
	"repro/internal/kb"
	"repro/internal/nhtsa"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	obsprof "repro/internal/obs/prof"
	"repro/internal/obs/reqlog"
	"repro/internal/pipeline"
	"repro/internal/qatk"
	"repro/internal/quest"
	"repro/internal/reldb"
	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/taxonomy"
)

// options collects the parsed questd flags.
type options struct {
	data, addr, debugAddr         string
	dbSync                        string
	shutdownTimeout               time.Duration
	requestTimeout                time.Duration
	dbSyncEvery                   time.Duration
	logLevel, logFile             string
	flightDir                     string
	sloP99, sloWindow             time.Duration
	flightInterval, stallDeadline time.Duration
	shards                        int
	hedgeAfter, shardTimeout      time.Duration
	replicas                      int
	maxApplyLag                   time.Duration
	reqRing, reqSample            int
	exemplars                     bool
	profInterval, profWindow      time.Duration
	profRing                      int
}

func main() {
	var o options
	flag.StringVar(&o.data, "data", "data", "data directory (from cmd/datagen)")
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "pprof + /debug/bundle listen address, unauthenticated: bind a loopback address such as localhost:6060 (empty disables)")
	flag.DurationVar(&o.shutdownTimeout, "shutdown-timeout", 10*time.Second, "in-flight request drain budget on SIGINT/SIGTERM")
	flag.DurationVar(&o.requestTimeout, "request-timeout", 30*time.Second, "per-request handler time budget (0 disables)")
	flag.StringVar(&o.dbSync, "db-sync", "always", "WAL durability: always | interval | never")
	flag.DurationVar(&o.dbSyncEvery, "db-sync-interval", reldb.DefaultSyncEvery, "group-commit fsync cadence (with -db-sync=interval)")
	flag.StringVar(&o.logLevel, "log-level", "info", "log severity: debug | info | warn | error")
	flag.StringVar(&o.logFile, "log-file", "", "log destination file (empty = stderr); appended, never truncated")
	flag.StringVar(&o.flightDir, "flight-dir", "", "flight-recorder bundle directory (empty disables the recorder)")
	flag.DurationVar(&o.sloP99, "slo-p99", 0, "serving-path p99 latency budget for the SLO watchdog (0 disables it)")
	flag.DurationVar(&o.sloWindow, "slo-window", flight.DefaultSLOWindow, "SLO watchdog sliding-window length")
	flag.DurationVar(&o.flightInterval, "flight-interval", 5*time.Second, "flight recorder watchdog tick interval")
	flag.DurationVar(&o.stallDeadline, "stall-deadline", flight.DefaultStallDeadline, "heartbeat deadline before the stall trigger fires")
	flag.IntVar(&o.shards, "shards", 1, "shard count for the live /api/recommend fan-out tier")
	flag.DurationVar(&o.hedgeAfter, "hedge-after", shard.DefaultHedgeAfter, "delay before a shard sub-query is hedged with a second attempt (0 disables hedging)")
	flag.DurationVar(&o.shardTimeout, "shard-timeout", shard.DefaultShardTimeout, "per-shard sub-query deadline")
	flag.IntVar(&o.replicas, "replicas", 0, "WAL-shipped read replicas tailing the database as hedge/failover targets (0 disables)")
	flag.DurationVar(&o.maxApplyLag, "max-apply-lag", shard.DefaultMaxApplyLag, "replica staleness bound: beyond it a replica only serves rescues, flagged stale")
	flag.IntVar(&o.reqRing, "req-ring", reqlog.DefaultCapacity, "retained wide-event ring capacity (the requests section of /debug/bundle and flight bundles)")
	flag.IntVar(&o.reqSample, "req-sample", 0, "head-sample 1 in N requests into the wide-event ring regardless of tail criteria (0 disables)")
	flag.BoolVar(&o.exemplars, "exemplars", false, "attach OpenMetrics trace exemplars to retained requests' latency buckets on /metrics")
	flag.DurationVar(&o.profInterval, "prof-interval", obsprof.DefaultInterval, "continuous-profiler sampling cadence (0 disables the profiler)")
	flag.DurationVar(&o.profWindow, "prof-window", obsprof.DefaultWindowSize, "CPU capture window per continuous-profiler sample")
	flag.IntVar(&o.profRing, "prof-ring", obsprof.DefaultRing, "retained continuous-profiler snapshot ring size")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "questd:", err)
		os.Exit(1)
	}
}

// debugMux builds the debug listener's mux: the pprof handlers,
// registered explicitly rather than through the DefaultServeMux side
// effects of importing net/http/pprof, and the recorder's /debug/bundle.
func debugMux(recorder *flight.Recorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/bundle", recorder.Handler())
	return mux
}

func run(o options) error {
	logger, sink, closeLogs, err := flight.NewLogging(o.logLevel, o.logFile)
	if err != nil {
		return err
	}
	defer closeLogs()
	metrics := obs.NewRegistry()
	tracer := obs.NewTracer(1024)
	tracer.Instrument(metrics.Counter(obs.MetricSpanNamesDroppedTotal))
	// Pre-register the pipeline families: questd does not run collection
	// processing itself, but the exposition presents the full QATK metric
	// inventory so dashboards bind to stable names.
	pipeline.RegisterMetrics(metrics)

	// The wide-event request log: one canonical event per request, tail
	// sampled into a fixed ring that flight-recorder bundles freeze.
	reqLog := reqlog.New(reqlog.Config{
		Capacity:  o.reqRing,
		HeadEvery: o.reqSample,
		Registry:  metrics,
	})

	// The continuous profiler keeps a bounded ring of recent CPU windows
	// and heap and goroutine summaries so a breach bundle carries
	// the minutes BEFORE the trigger, not just the moment of capture.
	var profiler *obsprof.Sampler
	if o.profInterval > 0 {
		profiler = obsprof.New(obsprof.Config{
			Interval:   o.profInterval,
			WindowSize: o.profWindow,
			Ring:       o.profRing,
			Registry:   metrics,
			Logger:     logger,
		})
		profiler.Start()
		defer profiler.Close()
	}

	// The flight recorder always runs: the debug mux reads it, and without
	// -flight-dir triggers still log and count but nothing is persisted.
	recorder := flight.New(flight.Config{
		Dir:           o.flightDir,
		Registry:      metrics,
		Tracer:        tracer,
		Logs:          sink,
		Logger:        logger,
		SLOTarget:     o.sloP99,
		SLOWindow:     o.sloWindow,
		StallDeadline: o.stallDeadline,
		Requests:      reqLog,
		Profiles:      profiler,
	})
	defer recorder.Close()
	recorder.Watch(o.flightInterval)

	sync, err := reldb.ParseSyncPolicy(o.dbSync)
	if err != nil {
		return err
	}
	db, err := reldb.OpenWith(filepath.Join(o.data, "db"), reldb.Options{Sync: sync, SyncEvery: o.dbSyncEvery})
	if err != nil {
		return err
	}
	defer db.Close()
	db.Instrument(logger, metrics)
	db.WithFlight(recorder)

	cfg := quest.Config{
		DB: db, RequestTimeout: o.requestTimeout,
		Logger: logger, Metrics: metrics, Tracer: tracer, Flight: recorder,
		Requests: reqLog, Exemplars: o.exemplars,
	}
	// The knowledge base is loaded from the database once, into memory;
	// the comparison screen and the live /api/recommend tier both rank
	// over it. An untrained database disables both.
	store, kbErr := kb.OpenDB(db)
	if kbErr != nil {
		kbErr = fmt.Errorf("knowledge base not trained yet: %w", kbErr)
	}
	if internal, public, err := buildComparison(o.data, db, store, kbErr); err != nil {
		fmt.Fprintf(os.Stderr, "comparison screen disabled: %v\n", err)
		cfg.ComparisonNote = err.Error()
	} else {
		cfg.Internal, cfg.Public = internal, public
	}

	// The live /api/recommend fan-out tier: the loaded knowledge base is
	// partitioned by part ID into -shards in-process shards behind the
	// hedging/breaker router. An untrained knowledge base disables the tier
	// (the batch-persisted suggestion screens still work) rather than
	// failing startup.
	if kbErr != nil {
		fmt.Fprintf(os.Stderr, "sharded serving disabled: %v\n", kbErr)
	} else {
		// -replicas N stands up N in-memory read replicas tailing the
		// serving database's WAL over an in-process link: snapshot
		// bootstrap, then continuous apply. The router hedges to fresh
		// replicas and rescues from stale ones (flagged), and the flight
		// recorder hard-triggers when the worst apply lag stays beyond the
		// bound for consecutive watchdog ticks.
		var targets []shard.ReplicaTarget
		if o.replicas > 0 {
			primary, err := repl.NewPrimary(db)
			if err != nil {
				return fmt.Errorf("replication: %w", err)
			}
			for i := 0; i < o.replicas; i++ {
				rep, err := repl.New(repl.Config{
					ID:      "r" + strconv.Itoa(i),
					Link:    primary,
					Metrics: metrics,
					Logger:  logger,
				})
				if err != nil {
					return fmt.Errorf("replication: %w", err)
				}
				rep.Start()
				defer rep.Close()
				targets = append(targets, rep)
			}
			reps := targets
			recorder.WatchReplicaLag(func() (time.Duration, string) {
				worst, id := time.Duration(0), ""
				for _, t := range reps {
					r := t.(*repl.Replica)
					if lag := r.ApplyLag(); lag > worst {
						worst, id = lag, r.ID()
					}
				}
				return worst, id
			}, o.maxApplyLag, flight.DefaultReplicaLagTicks)
		}
		router, err := shard.New(shard.Config{
			Stores:       shard.PartitionStores(store, o.shards),
			ShardTimeout: o.shardTimeout,
			HedgeAfter:   o.hedgeAfter,
			Replicas:     targets,
			MaxApplyLag:  o.maxApplyLag,
			Metrics:      metrics,
			Tracer:       tracer,
			Logger:       logger,
			Flight:       recorder,
		})
		if err != nil {
			return err
		}
		defer router.Close()
		cfg.Shards = router
		logger.Info("sharded serving enabled",
			obs.L("shards", strconv.Itoa(router.Shards())),
			obs.L("replicas", strconv.Itoa(len(targets))),
			obs.L("hedge_after", o.hedgeAfter.String()),
			obs.L("shard_timeout", o.shardTimeout.String()))
	}

	app, err := quest.NewServer(cfg)
	if err != nil {
		return err
	}

	if o.debugAddr != "" {
		dbg := &http.Server{Addr: o.debugAddr, Handler: debugMux(recorder)}
		//lint:ignore qatklint/goroleak the debug listener is process-lifetime by design: it dies with the daemon, and tearing it down on drain would cut off pprof exactly when a stuck shutdown needs diagnosing
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server failed", obs.L("addr", o.debugAddr), obs.L("err", err.Error()))
			}
		}()
		logger.Info("debug mux listening (pprof + /debug/bundle)", obs.L("addr", o.debugAddr))
	}

	// WriteTimeout must outlast the handler budget, or the timeout
	// middleware could never deliver its 503.
	writeTimeout := o.requestTimeout + 5*time.Second
	if o.requestTimeout <= 0 {
		writeTimeout = 0
	}
	srv := &http.Server{
		Addr:              o.addr,
		Handler:           app,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "QUEST listening on %s\n", o.addr)
	err = quest.ServeUntil(srv, o.shutdownTimeout, ctx.Done())
	if err == nil && ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "QUEST drained and stopped")
	}
	return err
}

// errNoComplaints reports an empty (but readable) ODI complaint table; the
// comparison screen then runs degraded rather than failing a wrapped nil.
var errNoComplaints = errors.New("no ODI complaints imported")

// buildComparison classifies the imported ODI complaints through the
// loaded knowledge base (kbErr when it could not be loaded) and prepares
// both distributions (§5.4).
func buildComparison(data string, db *reldb.DB, store *kb.Memory, kbErr error) (*compare.Distribution, *compare.Distribution, error) {
	tax, err := taxonomy.LoadFile(filepath.Join(data, "taxonomy.xml"))
	if err != nil {
		return nil, nil, err
	}
	if kbErr != nil {
		return nil, nil, kbErr
	}
	complaints, err := nhtsa.LoadAll(db)
	if err != nil {
		return nil, nil, fmt.Errorf("load ODI complaints: %w", err)
	}
	if len(complaints) == 0 {
		return nil, nil, errNoComplaints
	}
	clf := compare.NewClassifier(store, qatk.New(tax)) // bag-of-concepts + Jaccard
	public, err := clf.ComplaintDistribution(complaints)
	if err != nil {
		return nil, nil, err
	}
	bundles, err := bundle.LoadAll(db)
	if err != nil {
		return nil, nil, err
	}
	return compare.InternalDistribution(bundles), public, nil
}
