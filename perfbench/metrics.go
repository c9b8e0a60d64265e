package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. README.md defines each
// one per workload.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"acc_at_10", "share"},
	{"slo_met_share", "share"},
	{"heap_live_mb", "MB"},
}

// perLayer are the metrics of single layers, reported from a traced run.
// A layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	// Analysis layers.
	{"bundle.cas_s", "s"},
	{"textproc.tokenize_s", "s"},
	{"textproc.langdetect_s", "s"},
	{"textproc.tokens", "count"},
	{"annotate.annotate_s", "s"},
	{"annotate.mentions", "count"},
	{"kb.extract_s", "s"},
	{"kb.features_per_bundle", "count"},
	// Knowledge-base build.
	{"kb.build_s", "s"},
	{"kb.nodes_per_fold", "count"},
	{"kb.dedup_ratio", "share"},
	// Classifier, cross-validation.
	{"eval.count_candidates_s", "s"},
	{"kb.candidates_s", "s"},
	{"kb.candidates_per_query", "count"},
	{"core.score_rank_s", "s"},
	{"core.comparisons", "count"},
	{"core.cut_kept_share", "share"},
	{"core.dedup_s", "s"},
	{"core.acc_at_1", "share"},
	// Classifier, live serving.
	{"kb.candidates_known_us", "us"},
	{"kb.candidates_scatter_us", "us"},
	{"core.score_rank_known_us", "us"},
	{"core.score_rank_scatter_us", "us"},
	// Serving layers.
	{"shard.self_us", "us"},
	{"quest.handler_self_us", "us"},
	{"net.roundtrip_self_us", "us"},
	{"shard.hedged_share", "share"},
	{"shard.scatter_share", "share"},
	{"shard.degraded_share", "share"},
	// Storage layers.
	{"bundle.load_us", "us"},
	{"core.load_recs_us", "us"},
	{"quest.get_user_us", "us"},
	{"bundle.set_code_us", "us"},
	{"quest.record_assignment_us", "us"},
	{"quest.read_handler_self_us", "us"},
	{"quest.write_handler_self_us", "us"},
	{"quest.write_p50_ms", "ms"},
	{"quest.write_p95_ms", "ms"},
	{"bundle.store_all_s", "s"},
	{"kb.persist_s", "s"},
	{"qatk.train_s", "s"},
	{"qatk.classify_persist_s", "s"},
	// Load generator: the tail, and validity checks.
	{"loadgen.latency_p95_ms", "ms"},
	{"loadgen.achieved_rps", "1/s"},
	{"loadgen.lag_p50_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.inflight_max", "count"},
	{"loadgen.samples", "count"},
	// Runtime over the untraced measured phase.
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	// Trace bookkeeping.
	{"trace.wall_s", "s"},
	{"trace.wall_us", "us"},
	{"trace.residual_s", "s"},
	{"trace.residual_us", "us"},
	{"trace.overhead_s", "s"},
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of raw
// samples: the smallest sample with at least q of all samples at or below
// it; 0 for none.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// summary describes raw latency samples in ms for the human-readable
// lines before the result.
func summary(xs []float64) string {
	return fmt.Sprintf("p50 %.3f p90 %.3f p95 %.3f p99 %.3f max %.3f ms (%d samples)",
		percentile(xs, 0.5), percentile(xs, 0.9), percentile(xs, 0.95), percentile(xs, 0.99), percentile(xs, 1), len(xs))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
