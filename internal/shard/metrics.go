package shard

// Metric names the sharded serving tier emits, following the repository
// convention enforced by qatklint's metricname analyzer: snake_case,
// subsystem prefix, conventional unit suffix, declared as package-level
// constants. Per-shard families carry a "shard" label.
const (
	// MetricShardRequestsTotal counts sub-queries dispatched to a shard
	// (label "shard"), including ones rejected by an open breaker.
	MetricShardRequestsTotal = "quest_shard_requests_total"
	// MetricShardFailuresTotal counts sub-queries a shard failed to answer
	// after hedging (label "shard"): errors, per-shard deadline expiry, and
	// open-breaker rejections.
	MetricShardFailuresTotal = "quest_shard_failures_total"
	// MetricShardHedgesTotal counts hedged second attempts issued (label
	// "shard").
	MetricShardHedgesTotal = "quest_shard_hedges_total"
	// MetricShardHedgeWinsTotal counts sub-queries won by the hedged
	// attempt, i.e. the primary attempt was cancelled as the loser (label
	// "shard").
	MetricShardHedgeWinsTotal = "quest_shard_hedge_wins_total"
	// MetricShardBreakerOpensTotal counts breaker trips (label "shard").
	MetricShardBreakerOpensTotal = "quest_shard_breaker_opens_total"
	// MetricShardDegradedTotal counts router responses served degraded
	// (partial results after a shard failure).
	MetricShardDegradedTotal = "quest_shard_degraded_responses_total"
	// MetricShardReplicaReadsTotal counts sub-queries dispatched to a read
	// replica on a shard's behalf — hedged attempts and rescues (label
	// "shard").
	MetricShardReplicaReadsTotal = "quest_shard_replica_reads_total"
	// MetricShardStaleTotal counts router responses served from a replica
	// lagging beyond MaxApplyLag, flagged stale in the envelope.
	MetricShardStaleTotal = "quest_shard_stale_responses_total"
	// MetricShardQueryDurationSeconds observes end-to-end router query
	// latency, fan-out and merge included.
	MetricShardQueryDurationSeconds = "quest_shard_query_duration_seconds"
	// MetricShardQueriesInflight gauges router queries currently in flight.
	MetricShardQueriesInflight = "quest_shard_queries_inflight"
)

// spanShardQuery names the one span the router opens per query. A shard
// attempt is recorded once, as the wide event's reqlog.ShardAttempt.
const spanShardQuery = "shard.query"
