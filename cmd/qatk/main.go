// Command qatk drives the Quality Analytics Toolkit over a database
// directory produced by cmd/datagen:
//
//	qatk -data ./data train                   build + persist the knowledge base
//	qatk -data ./data classify                classify pending bundles, store suggestions
//	qatk -data ./data recommend -ref R000042  print the ranked codes for one bundle
//	qatk -data ./data export                  dump bundles as TSV interchange files
//	qatk -data ./data import                  load bundles from TSV interchange files
//	qatk diagnose <url|bundle>                render a live questd or a flight bundle as an incident report
//
// Flags -model (concepts|words) and -sim (jaccard|overlap) select the
// classifier variant; the default is the industrial configuration of the
// paper: bag-of-concepts with Jaccard similarity.
//
// Observability: structured key=value logs go to stderr (tune with
// -log-level, redirect with -log-file), and -flight-dir arms the same
// black-box flight recorder questd carries: a tripped circuit breaker
// during train, a stalled pipeline or cross-validation fold, a latched
// reldb fsync failure, or a goroutine spike snapshots a diagnostic
// bundle that `qatk diagnose` (or `qatk diagnose -v`, verbose) turns
// into a readable incident report.
//
// `qatk diagnose [-v] [-cpu out.pprof] <url|bundle>` is the one reader
// of QUEST's diagnostic surface. It takes a questd debug URL
// (http://localhost:6060; /debug/bundle is appended when missing), a
// bundle file, or a bundle directory from an earlier build, and renders every
// section: runtime, subsystems, metric movement, spans, the retained
// requests, the continuous profile, the log tail and the goroutines.
// -cpu writes the bundle's raw CPU profile for `go tool pprof`: the
// breach window when there is one, otherwise the newest ring
// snapshot's; against a URL it first asks for a fresh window (?cpu=1).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/pipeline"
	"repro/internal/qatk"
	"repro/internal/reldb"
	"repro/internal/taxonomy"
)

// options collects the parsed qatk flags.
type options struct {
	data, model, sim, ref string
	dbSync                string
	errorBudget           int
	logLevel, logFile     string
	flightDir             string
	stallDeadline         time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.data, "data", "data", "data directory (from cmd/datagen)")
	flag.StringVar(&o.model, "model", "concepts", "feature model: concepts | words")
	flag.StringVar(&o.sim, "sim", "jaccard", "similarity: jaccard | overlap")
	flag.StringVar(&o.ref, "ref", "", "bundle reference number (for recommend)")
	flag.IntVar(&o.errorBudget, "error-budget", 25, "consecutive bundle failures tolerated before train aborts (0 = abort on first failure)")
	flag.StringVar(&o.dbSync, "db-sync", "always", "WAL durability: always | interval | never")
	flag.StringVar(&o.logLevel, "log-level", "info", "log severity: debug | info | warn | error")
	flag.StringVar(&o.logFile, "log-file", "", "log destination file (empty = stderr); appended, never truncated")
	flag.StringVar(&o.flightDir, "flight-dir", "", "flight-recorder bundle directory (empty disables persistence)")
	flag.DurationVar(&o.stallDeadline, "stall-deadline", flight.DefaultStallDeadline, "heartbeat deadline before the stall trigger fires")
	flag.Parse()

	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cmd, rest := flag.Arg(0), flag.Args()[1:]
	var err error
	if cmd == "diagnose" {
		// Reads a live server or a bundle on disk; needs no database,
		// logger, or live recorder, so it must work even when -data
		// points nowhere.
		err = diagnose(rest, os.Stdout, fetchTimeout)
	} else {
		err = run(o, cmd, rest)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qatk:", err)
		os.Exit(1)
	}
}

// fetchTimeout bounds a diagnose fetch from a live server, so one that
// does not answer is an error, not a hang. A -cpu fetch gets twice the
// server's CPU window on top (see loadBundle).
const fetchTimeout = 10 * time.Second

// diagnose implements `qatk diagnose [-v] [-cpu out.pprof] <url|bundle>`;
// a URL fetch fails after timeout.
func diagnose(args []string, w io.Writer, timeout time.Duration) error {
	fs := flag.NewFlagSet("diagnose", flag.ContinueOnError)
	verbose := fs.Bool("v", false, "every metric series, span family, request, log line and ring snapshot, and the goroutine dump")
	cpuOut := fs.String("cpu", "", "write the raw CPU pprof profile to this file (a URL also captures a fresh window)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: qatk diagnose [-v] [-cpu out.pprof] <url, bundle .json or dir>")
	}
	b, err := loadBundle(fs.Arg(0), *cpuOut != "", timeout)
	if err != nil {
		return err
	}
	if *cpuOut != "" {
		var raw []byte
		if c := b.Profiles; c != nil {
			raw = c.BreachCPU
			if len(raw) == 0 && len(c.Ring) > 0 {
				raw = c.Ring[len(c.Ring)-1].CPUPprof
			}
		}
		if len(raw) == 0 {
			return fmt.Errorf("diagnose: bundle carries no CPU profile to extract")
		}
		if err := os.WriteFile(*cpuOut, raw, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d-byte CPU profile to %s (inspect with `go tool pprof %s`)\n", len(raw), *cpuOut, *cpuOut)
	}
	return flight.WriteReport(w, b, *verbose)
}

// loadBundle reads a bundle from a questd debug URL or from disk. A URL
// gets /debug/bundle appended when its path lacks it, and the body goes
// through the same decoder as a single-file bundle. Each fetch, body
// included, fails after timeout. When cpu asks for a fresh CPU window,
// the server answers only after waiting out its profiler's current window
// and capturing one of its own, and its -prof-window sets that window: a
// plain fetch reads it first, and the ?cpu=1 fetch gets twice as long
// again on top of timeout.
func loadBundle(arg string, cpu bool, timeout time.Duration) (*flight.Bundle, error) {
	if !strings.HasPrefix(arg, "http://") && !strings.HasPrefix(arg, "https://") {
		return flight.ReadBundle(arg)
	}
	target := strings.TrimRight(arg, "/")
	if !strings.HasSuffix(target, "/debug/bundle") {
		target += "/debug/bundle"
	}
	if cpu {
		b, err := fetchBundle(target, timeout)
		if err != nil {
			return nil, err
		}
		if b.Profiles != nil {
			timeout += 2 * time.Duration(b.Profiles.WindowNs)
		}
		target += "?cpu=1"
	}
	return fetchBundle(target, timeout)
}

// fetchBundle GETs and decodes one bundle, failing after timeout.
func fetchBundle(target string, timeout time.Duration) (*flight.Bundle, error) {
	resp, err := (&http.Client{Timeout: timeout}).Get(target)
	if err != nil {
		return nil, fmt.Errorf("diagnose: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("diagnose: %s answered %s", target, resp.Status)
	}
	return flight.DecodeBundle(resp.Body, target)
}

func run(o options, cmd string, rest []string) error {
	logger, sink, closeLogs, err := flight.NewLogging(o.logLevel, o.logFile)
	if err != nil {
		return err
	}
	defer closeLogs()
	metrics := obs.NewRegistry()
	tracer := obs.NewTracer(256)
	tracer.Instrument(metrics.Counter(obs.MetricSpanNamesDroppedTotal))
	pipeline.RegisterMetrics(metrics)

	recorder := flight.New(flight.Config{
		Dir:           o.flightDir,
		Registry:      metrics,
		Tracer:        tracer,
		Logs:          sink,
		Logger:        logger,
		StallDeadline: o.stallDeadline,
	})
	defer recorder.Close()
	recorder.Watch(time.Second)

	sync, err := reldb.ParseSyncPolicy(o.dbSync)
	if err != nil {
		return err
	}
	db, err := reldb.OpenWith(filepath.Join(o.data, "db"), reldb.Options{Sync: sync})
	if err != nil {
		return err
	}
	defer db.Close()
	db.Instrument(logger, metrics)
	db.WithFlight(recorder)

	tax, err := taxonomy.LoadFile(filepath.Join(o.data, "taxonomy.xml"))
	if err != nil {
		return err
	}
	opts := []qatk.Option{}
	switch o.model {
	case "concepts":
		opts = append(opts, qatk.WithModel(kb.BagOfConcepts))
	case "words":
		opts = append(opts, qatk.WithModel(kb.BagOfWords))
	default:
		return fmt.Errorf("unknown model %q", o.model)
	}
	switch o.sim {
	case "jaccard":
		opts = append(opts, qatk.WithSimilarity(core.Jaccard{}))
	case "overlap":
		opts = append(opts, qatk.WithSimilarity(core.Overlap{}))
	default:
		return fmt.Errorf("unknown similarity %q", o.sim)
	}
	tk := qatk.New(tax, opts...)

	bundles, err := bundle.LoadAll(db)
	if err != nil {
		return err
	}
	assigned := make([]*bundle.Bundle, 0, len(bundles))
	for _, b := range bundles {
		if b.ErrorCode != "" {
			assigned = append(assigned, b)
		}
	}
	assigned = bundle.FilterMultiOccurrence(assigned)

	switch cmd {
	case "train":
		// Fault-isolated training over messy collections: a malformed
		// bundle is reported and skipped; only a run of consecutive
		// failures (a systemic fault) aborts. The run is fully observed:
		// dead letters come out as structured log lines, engine timings as
		// trace spans aggregated into the closing report, and the flight
		// recorder snapshots a bundle if the breaker trips or the run
		// stalls past -stall-deadline.
		cfg := pipeline.RunConfig{
			ErrorBudget: o.errorBudget,
			Metrics:     metrics,
			Tracer:      tracer,
			Logger:      logger,
			Flight:      recorder,
		}
		if o.errorBudget > 0 {
			cfg.DeadLetter = func(pipeline.DeadLetter) error { return nil }
		}
		mem, stats, err := tk.TrainRun(context.Background(), assigned, cfg)
		if err != nil {
			return err
		}
		if err := tk.PersistKB(db, mem); err != nil {
			return err
		}
		fmt.Printf("knowledge base: %d nodes from %d bundles (%d distinct codes)\n",
			mem.NodeCount(), mem.BundleCount(), mem.DistinctCodes())
		fmt.Printf("collection run: %s\n", stats)
		pipeline.PrintSpanReport(os.Stdout, tracer.Stats())
		return db.Checkpoint()
	case "classify":
		store, err := kb.OpenDB(db)
		if err != nil {
			return fmt.Errorf("open knowledge base (run train first): %w", err)
		}
		n, err := tk.ClassifyAndPersist(db, store, bundles)
		if err != nil {
			return err
		}
		fmt.Printf("classified %d pending bundles\n", n)
		return db.Checkpoint()
	case "recommend":
		ref := o.ref
		if ref == "" && len(rest) > 0 {
			// Accept `qatk recommend -ref R…` (flags after the subcommand).
			fs := flag.NewFlagSet("recommend", flag.ContinueOnError)
			fs.StringVar(&ref, "ref", "", "bundle reference number")
			if err := fs.Parse(rest); err != nil {
				return err
			}
		}
		if ref == "" {
			return fmt.Errorf("recommend needs -ref")
		}
		b, err := bundle.Load(db, ref)
		if err != nil {
			return err
		}
		store, err := kb.OpenDB(db)
		if err != nil {
			return fmt.Errorf("open knowledge base (run train first): %w", err)
		}
		list, err := tk.Recommend(store, b)
		if err != nil {
			return err
		}
		fmt.Printf("bundle %s (part %s):\n", b.RefNo, b.PartID)
		for i, sc := range list {
			marker := ""
			if sc.Code == b.ErrorCode {
				marker = "  <- assigned code"
			}
			fmt.Printf("%3d. %-8s %.4f%s\n", i+1, sc.Code, sc.Score, marker)
		}
		return nil
	case "export":
		// Dump the bundle data as the two-file TSV interchange format.
		bf, err := os.Create(filepath.Join(o.data, "bundles.tsv"))
		if err != nil {
			return err
		}
		rf, err := os.Create(filepath.Join(o.data, "reports.tsv"))
		if err != nil {
			bf.Close()
			return err
		}
		if err := bundle.WriteTSV(bf, rf, bundles); err != nil {
			bf.Close()
			rf.Close()
			return err
		}
		if err := bf.Close(); err != nil {
			return err
		}
		if err := rf.Close(); err != nil {
			return err
		}
		fmt.Printf("exported %d bundles to %s/{bundles,reports}.tsv\n", len(bundles), o.data)
		return nil
	case "import":
		// Load additional bundles from the TSV interchange files.
		bf, err := os.Open(filepath.Join(o.data, "bundles.tsv"))
		if err != nil {
			return err
		}
		defer bf.Close()
		rf, err := os.Open(filepath.Join(o.data, "reports.tsv"))
		if err != nil {
			return err
		}
		defer rf.Close()
		imported, err := bundle.ReadTSV(bf, rf)
		if err != nil {
			return err
		}
		n := 0
		for _, b := range imported {
			if err := bundle.Store(db, b); err != nil {
				fmt.Fprintf(os.Stderr, "skipping %s: %v\n", b.RefNo, err)
				continue
			}
			n++
		}
		fmt.Printf("imported %d of %d bundles\n", n, len(imported))
		return db.Checkpoint()
	case "evaluate":
		// Stratified 5-fold CV of the selected variant over the assigned
		// bundles, exactly the §5.1 protocol. Each fold heartbeats the
		// flight recorder's stall guard.
		e := eval.New(tax, assigned)
		e.Tracer = tracer
		e.Flight = recorder
		var simObj core.Similarity = core.Jaccard{}
		if o.sim == "overlap" {
			simObj = core.Overlap{}
		}
		modelObj := kb.BagOfConcepts
		if o.model == "words" {
			modelObj = kb.BagOfWords
		}
		res, err := e.Run(eval.Variant{
			Name:  fmt.Sprintf("bag-of-%s + %s", o.model, o.sim),
			Model: modelObj, Sim: simObj,
		})
		if err != nil {
			return err
		}
		freq := e.RunFrequencyBaseline()
		eval.PrintTable(os.Stdout, "5-fold cross-validation", []*eval.Result{res, freq}, nil)
		fmt.Printf("\nclassification: %.2f ms/bundle, %d knowledge nodes/fold\n",
			1000*res.SecPerBundle, res.KBNodes)
		return nil
	default:
		return fmt.Errorf("unknown command %q (train | classify | recommend | evaluate | export | import | diagnose)", cmd)
	}
}
