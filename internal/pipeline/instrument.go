package pipeline

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/obs"
)

// Engine instrumentation: UIMA ships per-annotator performance reports;
// the QATK feasibility discussion (§5.2.2) needs the same visibility to
// attribute per-bundle cost to pipeline steps. Timing rides on trace
// spans now — RunWithConfig opens one span per engine invocation under
// the name "engine:<name>", and the tracer's per-name aggregation yields
// the same count/total/per-document table the retired Timed wrapper
// produced, without wrapping engines.

// EngineSpanPrefix namespaces per-engine spans so reports can separate
// engine timings from run- and document-level spans sharing the tracer.
const EngineSpanPrefix = "engine:"

// EngineStats filters a tracer aggregation down to per-engine rows,
// stripping the span-name prefix. Order (descending total) is preserved.
func EngineStats(stats []obs.SpanStat) []obs.SpanStat {
	var out []obs.SpanStat
	for _, s := range stats {
		if name, ok := strings.CutPrefix(s.Name, EngineSpanPrefix); ok {
			s.Name = name
			out = append(out, s)
		}
	}
	return out
}

// PrintSpanReport writes a per-engine timing table, slowest first, from a
// tracer aggregation (tr.Stats()). Rows without the engine span prefix —
// run, document, fold spans — are skipped.
func PrintSpanReport(w io.Writer, stats []obs.SpanStat) {
	fmt.Fprintf(w, "%-28s %10s %10s %14s %8s\n", "engine", "documents", "total", "per document", "errors")
	for _, s := range EngineStats(stats) {
		fmt.Fprintf(w, "%-28s %10d %10s %14s %8d\n",
			s.Name, s.Count, s.Total.Round(time.Microsecond), s.Per(), s.Errors)
	}
}

// PrintRunStats appends the run-level fault-tolerance summary to a timing
// report: how many documents were read, how many survived, and where the
// rest went (§5.2.2 visibility into degraded processing).
func PrintRunStats(w io.Writer, s Stats) {
	fmt.Fprintf(w, "%-28s %10d\n", "documents read", s.Read)
	fmt.Fprintf(w, "%-28s %10d\n", "documents processed", s.Processed)
	fmt.Fprintf(w, "%-28s %10d\n", "dead-lettered", s.DeadLettered)
}
