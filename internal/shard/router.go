package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/reqlog"
)

// Defaults for zero Config fields. DefaultHedgeAfter is NOT applied to a
// zero Config.HedgeAfter (zero disables hedging); it is the default
// questd serves with (-hedge-after).
const (
	DefaultShardTimeout    = 250 * time.Millisecond
	DefaultHedgeAfter      = 20 * time.Millisecond
	DefaultBreakerBudget   = 5
	DefaultBreakerCooldown = time.Second
)

// ErrShardBroken reports a sub-query rejected by an open circuit breaker.
var ErrShardBroken = errors.New("shard: breaker open")

// ErrAllShardsFailed reports a query no shard could answer.
var ErrAllShardsFailed = errors.New("shard: all shards failed")

// Config wires a Router.
type Config struct {
	// Stores holds one partition per shard (PartitionStores produces
	// them); its length is the shard count. Shards rank with core.Jaccard{}
	// and cut to core.DefaultNodeCutoff nodes, as the unsharded classifier.
	Stores []kb.Store
	// ShardTimeout bounds each attempt; the effective per-attempt deadline
	// is the smaller of ShardTimeout and the request context's remaining
	// budget (default 250ms).
	ShardTimeout time.Duration
	// HedgeAfter issues a second attempt when the primary has not answered
	// after this delay (first-response-wins, loser cancelled via context).
	// A fast-failing primary is retried immediately. 0 disables hedging.
	HedgeAfter time.Duration
	// BreakerBudget and BreakerCooldown configure the per-shard breakers
	// (consecutive failures to trip; cooldown before a half-open probe).
	BreakerBudget   int
	BreakerCooldown time.Duration
	// Hook injects deterministic chaos into every attempt (see FaultHook);
	// nil means healthy shards. Replica attempts do not run the hook —
	// replication-path faults are injected at the Link instead
	// (faults.FaultyLink).
	Hook FaultHook
	// Replicas are WAL-shipped read replicas (internal/repl) serving the
	// full knowledge base; the router cuts each shard's partition out of
	// them and uses them as hedge and failover targets.
	Replicas []ReplicaTarget
	// MaxApplyLag bounds replica staleness (default DefaultMaxApplyLag):
	// within it a replica is "fresh" and hedge-eligible; beyond it the
	// replica only serves rescues, with the response flagged stale.
	MaxApplyLag time.Duration
	// Observability, all nil-safe: quest_shard_* metrics, one span per
	// query, structured failure events, and flight hard triggers on
	// breaker trips and shard stalls.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	Logger  *obs.Logger
	Flight  *flight.Recorder
	// Clock is the breakers' time source (default time.Now); tests drive
	// cooldown recovery deterministically through it.
	Clock func() time.Time
}

// handle is one shard with its robustness wrapping.
type handle struct {
	idx     int
	id      string // idx, pre-rendered for labels
	store   kb.Store
	breaker *Breaker
	nodes   int
	// replicas are this shard's cuts of the configured replica targets,
	// consulted for hedged attempts (fresh only) and last-resort rescues
	// (stale allowed, flagged).
	replicas []*replicaView

	requests     *obs.Counter
	failures     *obs.Counter
	hedges       *obs.Counter
	hedgeWins    *obs.Counter
	breakerOpens *obs.Counter
	replicaReads *obs.Counter

	// stallLatched keeps the flight stall trigger to the transition into
	// the stalled state (deadline expiry on every attempt) rather than
	// firing per query; any success re-arms it.
	stallLatched atomic.Bool
}

// Router fans queries out over the shard set.
type Router struct {
	cfg    Config
	shards []*handle

	// attempts counts running attempt goroutines. Add happens only under
	// mu while the router is open, so Close's Wait never races an Add at
	// zero, even with queries still in flight.
	mu       sync.Mutex
	closed   bool //qatk:guardedby mu
	attempts sync.WaitGroup

	duration *obs.Histogram
	inflight *obs.Gauge
	degraded *obs.Counter
	stale    *obs.Counter
}

// Result is one answered query, carrying the degradation contract: Codes
// always ranks deterministically over whatever shards answered, and
// Degraded marks the set as partial (mirrored into the API envelope and
// /readyz).
type Result struct {
	Codes []core.ScoredCode
	// Degraded reports partial results: at least one shard failed or was
	// skipped by its breaker and the answer was served from the survivors.
	Degraded bool
	// FailedShards lists the shards (ascending) that did not contribute.
	FailedShards []int
	// Scatter reports the all-shards fallback path (part owned by no
	// shard, or the owner unavailable).
	Scatter bool
	// Hedged reports that at least one hedged second attempt was issued.
	Hedged bool
	// Replica reports that at least one sub-answer was served by a read
	// replica (hedge win or rescue) rather than a primary shard.
	Replica bool
	// Stale reports that a contributing replica was beyond the router's
	// MaxApplyLag bound when it answered: the result is a consistent but
	// possibly outdated prefix of the knowledge base (mirrored into the
	// API envelope as stale: true).
	Stale bool
}

// ShardHealth is one shard's health view, served by /readyz.
type ShardHealth struct {
	ID        int    `json:"id"`
	State     string `json:"state"` // breaker state: closed | open | half-open
	Nodes     int    `json:"nodes"`
	Requests  uint64 `json:"requests"`
	Failures  uint64 `json:"failures"`
	LastError string `json:"last_error,omitempty"`
}

// New builds a router over cfg.Stores. Callers must Close it.
func New(cfg Config) (*Router, error) {
	if len(cfg.Stores) == 0 {
		return nil, fmt.Errorf("shard: no stores")
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = DefaultShardTimeout
	}
	if cfg.MaxApplyLag <= 0 {
		cfg.MaxApplyLag = DefaultMaxApplyLag
	}
	r := &Router{
		cfg:      cfg,
		duration: cfg.Metrics.Histogram(MetricShardQueryDurationSeconds, obs.DefBuckets),
		inflight: cfg.Metrics.Gauge(MetricShardQueriesInflight),
		degraded: cfg.Metrics.Counter(MetricShardDegradedTotal),
		stale:    cfg.Metrics.Counter(MetricShardStaleTotal),
	}
	n := len(cfg.Stores)
	for i, store := range cfg.Stores {
		id := strconv.Itoa(i)
		label := obs.L("shard", id)
		h := &handle{
			idx:          i,
			id:           id,
			store:        store,
			breaker:      NewBreaker(cfg.BreakerBudget, cfg.BreakerCooldown, cfg.Clock),
			nodes:        store.NodeCount(),
			requests:     cfg.Metrics.Counter(MetricShardRequestsTotal, label),
			failures:     cfg.Metrics.Counter(MetricShardFailuresTotal, label),
			hedges:       cfg.Metrics.Counter(MetricShardHedgesTotal, label),
			hedgeWins:    cfg.Metrics.Counter(MetricShardHedgeWinsTotal, label),
			breakerOpens: cfg.Metrics.Counter(MetricShardBreakerOpensTotal, label),
			replicaReads: cfg.Metrics.Counter(MetricShardReplicaReadsTotal, label),
		}
		for _, t := range cfg.Replicas {
			h.replicas = append(h.replicas, &replicaView{t: t, shard: i, n: n})
		}
		r.shards = append(r.shards, h)
	}
	return r, nil
}

// Shards reports the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// Close waits for every attempt goroutine the router started to exit;
// attempts launched after it fail with errClosed. It is safe to call more
// than once and while queries are in flight: their running attempts end
// within ShardTimeout. The replicas themselves (the apply loops) belong to
// their owner.
func (r *Router) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.attempts.Wait()
}

// admit counts one more attempt goroutine, which must call
// r.attempts.Done on exit; it reports false once the router is closed.
func (r *Router) admit() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.attempts.Add(1)
	return true
}

// Health reports every shard's breaker state and counters.
func (r *Router) Health() []ShardHealth {
	out := make([]ShardHealth, len(r.shards))
	for i, h := range r.shards {
		sh := ShardHealth{
			ID:       i,
			State:    h.breaker.State(),
			Nodes:    h.nodes,
			Requests: h.requests.Value(),
			Failures: h.failures.Value(),
		}
		if err := h.breaker.LastError(); err != nil {
			sh.LastError = err.Error()
		}
		out[i] = sh
	}
	return out
}

// Degraded reports whether any shard's breaker is currently not closed —
// the router-level bit /readyz folds into its status.
func (r *Router) Degraded() bool {
	for _, h := range r.shards {
		if h.breaker.State() != StateClosed {
			return true
		}
	}
	return false
}

// Query answers one recommendation query. The owning shard (kb.PartOwner)
// is consulted first; a part no shard owns scatters to every shard and
// merges, reproducing the paper's all-nodes fallback bit-identically. An
// unavailable owner degrades to a scatter over the survivors; failing
// non-owning shards in a scatter are skipped and the response is marked
// Degraded. The error return is reserved for a query *no* shard answered.
func (r *Router) Query(ctx context.Context, partID string, features []string) (*Result, error) {
	start := time.Now()
	r.inflight.Add(1)
	span := r.cfg.Tracer.Start(nil, spanShardQuery, obs.L("part", partID))
	res := &Result{}
	var qerr error
	defer func() {
		r.inflight.Add(-1)
		r.duration.Observe(time.Since(start).Seconds())
		span.SetAttr("scatter", strconv.FormatBool(res.Scatter))
		span.SetAttr("degraded", strconv.FormatBool(res.Degraded))
		span.End(qerr)
	}()

	sc := reqlog.ClockFrom(ctx)
	owner := kb.PartOwner(partID, len(r.shards))
	out, hedged, err := r.queryShard(ctx, r.shards[owner], partID, features, false)
	res.Hedged = res.Hedged || hedged
	if err == nil && out.known {
		res.Replica, res.Stale = out.replica, out.stale
		if res.Stale {
			r.stale.Inc()
		}
		t := sc.Start()
		res.Codes = core.CodesFromNodes(out.nodes)
		sc.Lap(reqlog.StageDedup, t)
		return res, nil
	}
	skip := -1
	if err != nil {
		// The owner is unavailable: serve what the surviving shards can
		// rank rather than failing the query outright.
		res.Degraded = true
		res.FailedShards = append(res.FailedShards, owner)
		skip = owner
	}

	res.Scatter = true
	type scatterOut struct {
		idx    int
		out    response
		hedged bool
		err    error
	}
	ch := make(chan scatterOut, len(r.shards))
	dispatched := 0
	for i := range r.shards {
		if i == skip {
			continue
		}
		dispatched++
		go func(i int) {
			o, hg, e := r.queryShard(ctx, r.shards[i], partID, features, true)
			ch <- scatterOut{idx: i, out: o, hedged: hg, err: e}
		}(i)
	}
	lists := make([][]kb.Scored, 0, dispatched)
	for j := 0; j < dispatched; j++ {
		so := <-ch
		res.Hedged = res.Hedged || so.hedged
		if so.err != nil {
			res.Degraded = true
			res.FailedShards = append(res.FailedShards, so.idx)
			continue
		}
		res.Replica = res.Replica || so.out.replica
		res.Stale = res.Stale || so.out.stale
		lists = append(lists, so.out.nodes)
	}
	sort.Ints(res.FailedShards)
	if len(lists) == 0 {
		qerr = fmt.Errorf("%w: part %q", ErrAllShardsFailed, partID)
		return nil, qerr
	}
	t := sc.Start()
	merged := mergeNodes(lists, core.DefaultNodeCutoff)
	t = sc.Lap(reqlog.StageMerge, t)
	res.Codes = core.CodesFromNodes(merged)
	sc.Lap(reqlog.StageDedup, t)
	if res.Stale {
		r.stale.Inc()
	}
	if res.Degraded {
		r.degraded.Inc()
		r.cfg.Logger.Warn("degraded shard response",
			obs.L("part", partID),
			obs.L("failed_shards", fmt.Sprint(res.FailedShards)))
	}
	return res, nil
}

// mergeNodes merges per-shard ranked lists into one ranking under the
// classifier's total order, kb.CompareScored — score descending, then
// error code, then node ID (globally unique, preserved by kb.Subset) — and
// applies the node cutoff. Every input list is already cut to the same
// cutoff and sorted under the same order, so the merge is deterministic
// and identical to ranking the union store. The comparator is a total
// order, so the unstable generic sort yields a bit-identical ranking.
//
//qatk:hotpath
func mergeNodes(lists [][]kb.Scored, cutoff int) []kb.Scored {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	//qatk:allowalloc the merged ranking is the function's product, bounded by shards x cutoff
	merged := make([]kb.Scored, 0, total)
	for _, l := range lists {
		merged = append(merged, l...)
	}
	slices.SortFunc(merged, kb.CompareScored)
	if len(merged) > cutoff {
		merged = merged[:cutoff]
	}
	return merged
}

// attemptOut is one attempt's outcome inside queryShard.
type attemptOut struct {
	attempt int
	out     response
	err     error
}

// queryShard runs one robust sub-query against shard h: breaker
// admission, a per-attempt deadline derived from the request budget, and
// a hedged second attempt after HedgeAfter (first-response-wins, the
// loser cancelled via its attempt context). A fresh replica — ready and
// within MaxApplyLag — is preferred as the hedge target; and when the
// shard fails outright (breaker open, or every attempt burned), the best
// available replica serves a last-resort rescue, flagged stale when it
// lags beyond the bound. The breaker records one outcome per sub-query,
// not per attempt, and a rescue never resets it: the primary is still
// broken. The bool reports whether a hedged attempt was issued.
func (r *Router) queryShard(ctx context.Context, h *handle, partID string, features []string, scatter bool) (response, bool, error) {
	h.requests.Inc()
	// The wide-event builder rides the request context; the breaker state
	// at admission is read only when request logging is on.
	q := &subQuery{h: h, partID: partID, features: features, scatter: scatter, rb: reqlog.From(ctx)}
	if q.rb != nil {
		q.bstate = h.breaker.State()
	}
	if !h.breaker.Allow() {
		h.failures.Inc()
		q.rb.Attempt(reqlog.ShardAttempt{Shard: h.idx, Breaker: q.bstate, Err: ErrShardBroken.Error()})
		if out, ok := r.rescue(ctx, q); ok {
			return out, false, nil
		}
		return response{}, false, fmt.Errorf("%w: shard %d", ErrShardBroken, h.idx)
	}

	// Attempts run under actx, cancelled once the sub-query is settled, so
	// a losing attempt unwinds while the winner is served.
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	outc := make(chan attemptOut, 2) // one send per attempt: never blocks
	launch := func(n int, rv *replicaView) {
		if !r.admit() {
			outc <- attemptOut{attempt: n, err: errClosed}
			return
		}
		go func() {
			defer r.attempts.Done()
			out, err := r.attempt(actx, q, n, rv)
			outc <- attemptOut{attempt: n, out: out, err: err}
		}()
	}
	launch(1, nil)

	var hedgeC <-chan time.Time
	if r.cfg.HedgeAfter > 0 {
		t := time.NewTimer(r.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}

	pending := 1
	hedged := false
	hedge := func() {
		hedgeC = nil
		hedged = true
		h.hedges.Inc()
		// A fresh replica beats a second attempt at the shard itself as the
		// hedge target: it cannot be wedged on the same state the primary
		// attempt is stuck on. Staleness beyond the bound disqualifies —
		// hedges must not quietly trade latency for freshness.
		rv, _ := r.pickReplica(h, true)
		if rv != nil {
			h.replicaReads.Inc()
		}
		launch(2, rv)
		pending++
	}
	for {
		select {
		case <-hedgeC:
			hedge()
		case ao := <-outc:
			pending--
			if ao.err == nil {
				// First response wins: cancel the loser and let its
				// goroutine drain into the buffered channel.
				cancel()
				if ao.attempt == 2 {
					h.hedgeWins.Inc()
				}
				q.rb.MarkWinner(h.idx, ao.attempt)
				h.breaker.Success()
				h.stallLatched.Store(false)
				return ao.out, hedged, nil
			}
			if pending > 0 {
				continue // the other attempt may still win
			}
			if !hedged && r.cfg.HedgeAfter > 0 && ctx.Err() == nil {
				// The primary failed before the hedge delay elapsed:
				// spend the hedge as an immediate retry.
				hedge()
				continue
			}
			ferr := r.shardFailed(ctx, h, ao.err)
			if out, ok := r.rescue(ctx, q); ok {
				return out, hedged, nil
			}
			return response{}, hedged, ferr
		case <-ctx.Done():
			// The request budget expired; attempt contexts are children
			// of ctx, so the attempts unwind on their own — and there is
			// no budget left to spend on a rescue.
			return response{}, hedged, r.shardFailed(ctx, h, ctx.Err())
		}
	}
}

// rescue is the last line of the degradation ladder: after the shard
// itself failed (or its breaker rejected the sub-query), serve from the
// best available replica — ready, smallest apply lag, stale allowed — on
// the calling goroutine. A stale rescue is flagged on the response
// (stale: true in the envelope) rather than refused: a
// consistent-but-outdated answer beats no answer, and never diverges (the
// replica holds an exact prefix of the primary's history). Rescue success
// deliberately leaves the breaker and the stall latch untouched — the
// primary shard is still broken.
func (r *Router) rescue(ctx context.Context, q *subQuery) (response, bool) {
	if ctx.Err() != nil {
		return response{}, false
	}
	rv, lag := r.pickReplica(q.h, false)
	if rv == nil {
		return response{}, false
	}
	const attempt = 3 // after the primary (1) and the hedge (2)
	q.h.replicaReads.Inc()
	out, err := r.attempt(ctx, q, attempt, rv)
	if err != nil {
		r.cfg.Logger.Warn("replica rescue failed",
			obs.L("shard", q.h.id),
			obs.L("replica", rv.t.ID()),
			obs.L("err", err.Error()))
		return response{}, false
	}
	out.stale = lag > r.cfg.MaxApplyLag
	q.rb.MarkWinner(q.h.idx, attempt)
	r.cfg.Logger.Warn("sub-query rescued by replica",
		obs.L("shard", q.h.id),
		obs.L("replica", rv.t.ID()),
		obs.L("stale", strconv.FormatBool(out.stale)))
	return out, true
}

// shardFailed accounts one sub-query failure: counters, breaker, the
// stall hard trigger on deadline expiry, and the breaker-trip hard
// trigger, both latched to state transitions.
func (r *Router) shardFailed(ctx context.Context, h *handle, err error) error {
	h.failures.Inc()
	shardLabel := obs.L("shard", h.id)
	if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		// Every attempt burned its per-shard deadline while the request
		// budget was still live: the shard is wedged, not the client.
		if !h.stallLatched.Swap(true) {
			r.cfg.Flight.Trigger(flight.ReasonShardStall,
				shardLabel,
				obs.L("timeout", r.cfg.ShardTimeout.String()))
		}
	}
	r.cfg.Logger.Warn("shard sub-query failed", shardLabel, obs.L("err", err.Error()))
	if tripped := h.breaker.Failure(err); tripped {
		h.breakerOpens.Inc()
		reqlog.From(ctx).BreakerTrip(h.idx)
		r.cfg.Logger.Error("shard circuit breaker tripped",
			shardLabel, obs.L("err", err.Error()))
		r.cfg.Flight.Trigger(flight.ReasonCircuitBreaker,
			shardLabel,
			obs.L("tier", "shard-router"),
			obs.L("err", err.Error()))
	}
	return fmt.Errorf("shard %d: %w", h.idx, err)
}
