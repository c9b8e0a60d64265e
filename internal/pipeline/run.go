package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strconv"

	"repro/internal/cas"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// Fault-isolated collection processing. The paper positions the QATK at
// *messy* industrial data (§1, §5.2): a production run over thousands of
// bundles must survive individual malformed documents. RunWithConfig routes
// failing documents to a dead-letter consumer instead of aborting, trips a
// circuit breaker only when an error budget of consecutive failures is
// exhausted, and reports run-level statistics for the §5.2.2 feasibility
// view of where processing degrades.

// MetaDocID is the CAS metadata key consulted for a human-readable document
// identifier in errors and dead letters (bundle readers store the bundle
// reference number under this key).
const MetaDocID = "ref_no"

// DocumentError wraps a per-document failure with its position in the
// collection and, when available, the document's reference number.
type DocumentError struct {
	Index int    // zero-based position in the reader's stream
	DocID string // CAS metadata under MetaDocID, "" if unset
	Err   error
}

// Error formats the failure with document attribution.
func (e *DocumentError) Error() string {
	if e.DocID != "" {
		return fmt.Sprintf("pipeline: document %d (%s): %v", e.Index, e.DocID, e.Err)
	}
	return fmt.Sprintf("pipeline: document %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying error.
func (e *DocumentError) Unwrap() error { return e.Err }

// DeadLetter describes one document that failed processing and was routed
// out of the run instead of aborting it.
type DeadLetter struct {
	Index  int      // zero-based position in the reader's stream
	DocID  string   // CAS metadata under MetaDocID, "" if unset
	Engine string   // failing engine name; "(consumer)" for consumer errors
	Err    error    // the document's failure, unwrapped of attribution
	CAS    *cas.CAS // the document, as far as it was processed
}

// DeadLetterFunc receives failed documents. Returning an error aborts the
// run (e.g. when the dead-letter sink itself is broken).
type DeadLetterFunc func(DeadLetter) error

// consumerEngine names consumer failures in dead letters.
const consumerEngine = "(consumer)"

// RunConfig tunes fault isolation for one collection run.
type RunConfig struct {
	// DeadLetter receives failing documents. Nil restores strict behavior:
	// the first document failure aborts the run.
	DeadLetter DeadLetterFunc
	// ErrorBudget is how many *consecutive* document failures are tolerated
	// before the circuit breaker trips the run with ErrCircuitOpen. Zero or
	// negative means no breaker: any number of isolated failures is allowed.
	ErrorBudget int
	// Metrics receives run counters (documents, dead letters, circuit
	// breaks). Nil disables metrics at zero cost.
	Metrics *obs.Registry
	// Tracer records one root span per run ("pipeline.run"), one child per
	// document ("pipeline.document"), and one grandchild per engine
	// invocation ("engine:<name>"). Nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// Logger receives structured dead-letter and circuit-break events.
	// Nil disables logging.
	Logger *obs.Logger
	// Flight is the black-box flight recorder: the run heartbeats a stall
	// guard per document (so a wedged reader, engine, or consumer trips
	// the stall watchdog) and a tripped circuit breaker captures a
	// diagnostic bundle. Nil disables flight recording at zero cost.
	Flight *flight.Recorder
}

// ErrCircuitOpen reports a tripped consecutive-failure circuit breaker.
var ErrCircuitOpen = errors.New("pipeline: circuit open")

// Stats summarizes one collection run. Read = Processed + DeadLettered
// always holds on a completed run; on an aborted run the failing document
// is counted as read but neither processed nor dead-lettered.
type Stats struct {
	Read         int // documents pulled from the reader
	Processed    int // documents that passed every engine and the consumer
	DeadLettered int // documents routed to the dead-letter consumer
}

// String renders the run summary as a single report line.
func (s Stats) String() string {
	return fmt.Sprintf("read %d, processed %d, dead-lettered %d",
		s.Read, s.Processed, s.DeadLettered)
}

// Span names opened by RunWithConfig. Per-engine spans are named by
// EngineSpanPrefix plus the engine name (see instrument.go).
const (
	spanRun      = "pipeline.run"
	spanDocument = "pipeline.document"
)

// RunWithConfig streams every CAS from r through the pipeline into consumer
// with document-level error isolation: a failing document is handed to
// cfg.DeadLetter (with engine attribution) and the run continues. Reader
// errors other than io.EOF remain fatal — a broken source cannot be skipped
// past. The returned Stats are valid even when the run aborts early.
//
// Cancellation is honored at document boundaries: when ctx is done the
// run stops before pulling the next document and returns ctx's error
// (wrapped) alongside the Stats accumulated so far. A long ingest can
// therefore be shut down without waiting for the corpus to drain.
//
// Observability rides on the config: a root span covers the run, each
// document gets a child span, each engine invocation a grandchild, and
// counters/log events record documents, dead letters and circuit breaks.
// All of it is nil-safe — a zero RunConfig processes documents on
// the exact pre-observability path.
func (p *Pipeline) RunWithConfig(ctx context.Context, r Reader, consumer Consumer, cfg RunConfig) (stats Stats, err error) {
	consecutive := 0
	docsRead := cfg.Metrics.Counter(MetricDocumentsTotal)
	deadLetters := cfg.Metrics.Counter(MetricDeadLettersTotal)
	circuitBreaks := cfg.Metrics.Counter(MetricCircuitBreaksTotal)
	run := cfg.Tracer.Start(nil, spanRun)
	log := cfg.Logger.WithSpan(run)
	guard := cfg.Flight.Guard(spanRun)
	defer guard.Stop()
	defer func() { run.End(err) }()
	for index := 0; ; index++ {
		if cerr := ctx.Err(); cerr != nil {
			return stats, fmt.Errorf("pipeline: run cancelled after %d documents: %w", stats.Read, cerr)
		}
		c, rerr := r.Next()
		if errors.Is(rerr, io.EOF) {
			return stats, nil
		}
		if rerr != nil {
			return stats, fmt.Errorf("pipeline: reader: %w", rerr)
		}
		stats.Read++
		docsRead.Inc()
		guard.Beat()

		doc := cfg.Tracer.Start(run, spanDocument)
		// The document work runs under pprof labels so CPU profiles
		// attribute engine and consumer time to pipeline documents, the way
		// shard workers label their serving goroutines.
		var docErr error
		engine := ""
		pprof.Do(ctx, pprof.Labels("pipeline", "document"), func(ctx context.Context) {
			docErr = p.process(c, cfg.Tracer, doc)
			if docErr != nil {
				var ee *EngineError
				if errors.As(docErr, &ee) {
					engine = ee.Engine
				}
			} else if consumer != nil {
				if cerr := consumer.Consume(c); cerr != nil {
					docErr = fmt.Errorf("pipeline: consumer: %w", cerr)
					engine = consumerEngine
				}
			}
		})
		doc.End(docErr)

		if docErr == nil {
			stats.Processed++
			consecutive = 0
			continue
		}

		wrapped := &DocumentError{Index: index, DocID: c.Metadata(MetaDocID), Err: docErr}
		if cfg.DeadLetter == nil {
			return stats, wrapped
		}
		dl := DeadLetter{Index: index, DocID: wrapped.DocID, Engine: engine, Err: docErr, CAS: c}
		if dlErr := cfg.DeadLetter(dl); dlErr != nil {
			return stats, fmt.Errorf("pipeline: dead-letter consumer: %w", dlErr)
		}
		stats.DeadLettered++
		deadLetters.Inc()
		log.Warn("document dead-lettered",
			obs.L("engine", engine),
			obs.L("doc", dl.DocID),
			obs.L("index", strconv.Itoa(index)),
			obs.L("err", docErr.Error()))
		consecutive++
		if cfg.ErrorBudget > 0 && consecutive >= cfg.ErrorBudget {
			circuitBreaks.Inc()
			log.Error("circuit breaker tripped",
				obs.L("consecutive", strconv.Itoa(consecutive)),
				obs.L("doc", dl.DocID))
			cfg.Flight.Trigger(flight.ReasonCircuitBreaker,
				obs.L("consecutive", strconv.Itoa(consecutive)),
				obs.L("doc", dl.DocID),
				obs.L("err", docErr.Error()))
			// Both the sentinel and the last document failure are wrapped:
			// callers match the breaker with errors.Is(err, ErrCircuitOpen)
			// and still extract the *DocumentError with errors.As for
			// attribution (which %v used to sever).
			return stats, fmt.Errorf("%w: %d consecutive document failures (last: %w)",
				ErrCircuitOpen, consecutive, wrapped)
		}
	}
}
