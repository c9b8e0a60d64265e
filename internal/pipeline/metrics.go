package pipeline

import "repro/internal/obs"

// Metric names the pipeline layer emits. Names follow the repository
// convention enforced by qatklint's metricname analyzer: snake_case,
// subsystem prefix, conventional unit suffix, declared as package-level
// constants.
const (
	// MetricDocumentsTotal counts documents pulled from the reader into a
	// collection run, whatever their fate.
	MetricDocumentsTotal = "qatk_pipeline_documents_total"
	// MetricDeadLettersTotal counts documents routed to the dead-letter
	// consumer instead of completing the run.
	MetricDeadLettersTotal = "qatk_pipeline_dead_letters_total"
	// MetricCircuitBreaksTotal counts runs aborted by the
	// consecutive-failure circuit breaker.
	MetricCircuitBreaksTotal = "qatk_pipeline_circuit_breaks_total"
)

// RegisterMetrics pre-registers every pipeline metric family on r so the
// families render (at zero) in a /metrics exposition before the first
// collection run — scrapers see the full inventory from process start.
func RegisterMetrics(r *obs.Registry) {
	r.Counter(MetricDocumentsTotal)
	r.Counter(MetricDeadLettersTotal)
	r.Counter(MetricCircuitBreaksTotal)
}
