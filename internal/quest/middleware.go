package quest

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/reqlog"
)

// HTTP hardening for the QUEST serving tier: the quality experts' web UI
// must stay up through handler bugs and slow requests — one panicking or
// stalled handler cannot be allowed to take the field-study deployment
// (§5.3) down with it. Every defensive event is observable: panics and
// timeouts surface as counters and structured log lines, and Instrument
// gives every request a trace span plus the RED metrics (rate, errors,
// duration).

// spanHTTPRequest names the per-request trace span.
const spanHTTPRequest = "http.request"

// maxRecordedBytes bounds each request string the serving tier records in
// a span, a wide event or a log line.
const maxRecordedBytes = 256

// recorded returns at most maxRecordedBytes of s, copied. net/http slices
// a request's method, path and query values out of its request line, which
// may be about 1 MiB long, so recording one as it is would keep the whole
// line alive for as long as the tracer or the request log holds it.
func recorded(s string) string {
	if len(s) > maxRecordedBytes {
		s = s[:maxRecordedBytes]
	}
	return strings.Clone(s)
}

// Recover wraps a handler so that panics return 500 to the client and are
// logged with a stack trace instead of killing the serving process; each
// absorbed panic also increments panics (quest_panics_total) when non-nil.
// A recovered panic is a hard anomaly: the flight recorder (nil = off)
// captures a diagnostic bundle with the panic value and request identity.
// http.ErrAbortHandler is re-raised: it is the sanctioned way to abort a
// response and is handled by the http server itself.
func Recover(logger *obs.Logger, panics *obs.Counter, fr *flight.Recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			//lint:ignore qatklint/paniccontract the HTTP serving tier is its own recovery boundary, mirroring the pipeline's: a handler panic must not kill the deployment
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				//lint:ignore qatklint/paniccontract http.ErrAbortHandler must be re-raised; net/http itself recovers it as the sanctioned abort path
				panic(rec)
			}
			panics.Inc()
			// A recovered panic is a hard retention reason for the request's
			// wide event (nil-safe when request logging is off).
			reqlog.From(r.Context()).SetPanic(fmt.Sprint(rec))
			method, path := recorded(r.Method), recorded(r.URL.Path)
			logger.Error("panic serving request",
				obs.L("method", method),
				obs.L("path", path),
				obs.L("panic", fmt.Sprint(rec)),
				obs.L("stack", string(debug.Stack())))
			fr.Trigger(flight.ReasonPanic,
				obs.L("method", method),
				obs.L("path", path),
				obs.L("value", fmt.Sprint(rec)))
			// The handler may already have written a partial response; the
			// extra WriteHeader is then a no-op and the client sees a torn
			// body, which is the best that can be done at this point.
			http.Error(w, "internal server error", http.StatusInternalServerError)
		}()
		next.ServeHTTP(w, r)
	})
}

// WithTimeout bounds every request's handler time, answering 503 when it is
// exceeded. Each exceeded budget increments timeouts (quest_timeouts_total)
// and logs the request path. d <= 0 disables the bound.
func WithTimeout(d time.Duration, timeouts *obs.Counter, logger *obs.Logger, next http.Handler) http.Handler {
	if d <= 0 {
		return next
	}
	// The watcher runs inside the TimeoutHandler goroutine: when the inner
	// handler returns after its context deadline fired, the 503 has already
	// been (or is being) written by TimeoutHandler — record why.
	watched := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(w, r)
		if errors.Is(r.Context().Err(), context.DeadlineExceeded) {
			timeouts.Inc()
			logger.Warn("request timed out",
				obs.L("method", recorded(r.Method)),
				obs.L("path", recorded(r.URL.Path)),
				obs.L("budget", d.String()))
		}
	})
	return http.TimeoutHandler(watched, d, "request timed out")
}

// maxBodyBytes bounds every request body the application mux reads: a
// login, user or catalog form, or the assign API's one-field JSON. Without
// a cap the assign API would decode, and durably store, whatever code
// string arrives.
const maxBodyBytes = 64 << 10

// limitBody answers 413 before next runs when a request declares a body
// over maxBodyBytes, and caps the rest with http.MaxBytesReader so a body
// of undeclared length cannot grow past it either. Requests without a body
// pass through untouched.
func limitBody(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength > maxBodyBytes {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
			return
		}
		if r.ContentLength != 0 {
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		}
		next.ServeHTTP(w, r)
	})
}

// statusRecorder captures the first status code written to a response.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the first explicit status.
func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

// Write records the implicit 200 of a body written without WriteHeader.
func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming handlers keep
// working behind Instrument.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer to http.NewResponseController, which
// restores Hijack/SetDeadline support the embedding alone would hide.
func (sr *statusRecorder) Unwrap() http.ResponseWriter {
	return sr.ResponseWriter
}

// Instrument wraps a handler with request observability: a trace span per
// request (method, path, status attributes), a request counter by status
// code, a latency histogram, and an in-flight gauge. The latency
// histogram is also what the flight recorder's SLO watchdog windows
// (NewServer registers it). The method and path it records are cut to
// maxRecordedBytes.
// It sits outermost in the chain so that panics recovered further in are
// still counted with their 500. Nil registry and tracer disable the
// respective signal.
//
// rl (nil = off) opens one wide event per request and carries its builder
// on the request context for the layers below to fill in; the event is
// sealed here with the status, trace ID and total latency. When an event
// is retained and exemplars is set, the latency histogram bucket gains an
// OpenMetrics exemplar carrying the event's trace ID — so a scrape links
// a tail bucket to a concrete request in the requests section of
// /debug/bundle.
func Instrument(reg *obs.Registry, tr *obs.Tracer, rl *reqlog.Log, exemplars bool, next http.Handler) http.Handler {
	inflight := reg.Gauge(MetricHTTPRequestsInflight)
	duration := reg.Histogram(MetricHTTPRequestDurationSeconds, obs.DefBuckets)
	// Pre-touch the one series every deployment serves, so the family
	// renders on a scrape that precedes the first completed request.
	reg.Counter(MetricHTTPRequestsTotal, obs.L("code", "200"))
	exemplarCount := reg.Counter(MetricReqExemplarsTotal)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inflight.Add(1)
		method, path := recorded(r.Method), recorded(r.URL.Path)
		span := tr.Start(nil, spanHTTPRequest, obs.L("method", method), obs.L("path", path))
		b := rl.Begin(method, path)
		if b != nil {
			r = r.WithContext(reqlog.NewContext(r.Context(), b))
		}
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			if rec.status == 0 {
				rec.status = http.StatusOK
			}
			code := strconv.Itoa(rec.status)
			inflight.Add(-1)
			elapsed := time.Since(start)
			duration.Observe(elapsed.Seconds())
			reg.Counter(MetricHTTPRequestsTotal, obs.L("code", code)).Inc()
			span.SetAttr("code", code)
			span.End(nil)
			if b.Finish(rec.status, span.TraceID(), elapsed) && exemplars {
				duration.Exemplar(elapsed.Seconds(), reqlog.TraceIDString(span.TraceID()), start.Add(elapsed))
				exemplarCount.Inc()
			}
		}()
		next.ServeHTTP(rec, r)
	})
}
