// Package shard is the sharded QUEST serving tier (ROADMAP item 2): the
// knowledge base is partitioned by part ID into N in-process shards, each
// ranking over its own store partition, behind a Router that fans queries
// out, merges ranked lists deterministically, and survives misbehaving
// shards. The paper's candidate selection (§4.3) keys on part ID, so shard
// routing is free; what this package builds is the robustness layer that
// makes the fan-out trustworthy — per-shard deadlines derived from the
// request budget, hedged second attempts (first-response-wins, loser
// cancelled via context), per-shard consecutive-failure circuit breakers,
// and graceful degradation to partial results marked `degraded`. Every
// attempt runs on a goroutine of its own (a replica rescue on the
// caller's), so a wedged attempt never holds up another.
package shard

import (
	"context"
	"errors"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/obs/reqlog"
)

// FaultHook runs at the start of every primary-shard attempt; the chaos
// tests inject deterministic misbehavior through it (internal/faults
// provides slow-shard, error-shard and wedged-shard modes). It may delay,
// return an error, or block, but it must return once ctx is done: it runs
// on the attempt's goroutine, which Router.Close waits for. A nil hook is
// a healthy shard. attempt is 1 for the primary attempt, 2 for the hedge.
type FaultHook func(ctx context.Context, shard, attempt int) error

// response is one attempt's answer.
type response struct {
	nodes []kb.Scored
	known bool
	// replica marks an answer served by a read replica; stale additionally
	// marks the replica as lagging beyond the router's MaxApplyLag bound
	// when it answered.
	replica bool
	stale   bool
}

// errNoKB reports a replica attempt that found the replica without a
// knowledge base (crashed or re-bootstrapping since it was picked).
var errNoKB = errors.New("shard: replica has no knowledge base to serve")

// errClosed fails the attempts a query launches after Router.Close.
var errClosed = errors.New("shard: router closed")

// subQuery is one shard's share of a router query: what every attempt at
// it shares.
type subQuery struct {
	h        *handle
	partID   string
	features []string
	// scatter selects all-local-nodes ranking for parts no shard owns;
	// owned mode answers only when the shard knows the part.
	scatter bool
	// rb is the request's wide-event builder (nil when request logging is
	// off); bstate is the breaker state at admission, read only for rb.
	rb     *reqlog.Builder
	bstate string
}

// attempt runs attempt n of q on the calling goroutine: the primary (1),
// the hedge (2) or a replica rescue (3). rv is the replica serving it, nil
// for the primary shard; replica attempts rank over the shard's cut of the
// replica's knowledge base and never run the fault hook (replication-path
// faults are injected at the Link). The attempt gets its own deadline
// (ShardTimeout under ctx) and wide-event record, the one record of an
// attempt, and runs under pprof labels (shard ID; primary, hedge or
// replica role) so CPU profiles attribute serving time per shard and show
// what hedges cost. The record is written before attempt returns, so a
// winner is already in the event when the caller marks it.
func (r *Router) attempt(ctx context.Context, q *subQuery, n int, rv *replicaView) (response, error) {
	actx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
	defer cancel()
	role, replicaID := "primary", ""
	if rv != nil {
		role, replicaID = "replica", rv.t.ID()
	} else if n > 1 {
		role = "hedge"
	}
	var start time.Time
	var deadline time.Duration
	if q.rb != nil {
		start, deadline = time.Now(), r.cfg.ShardTimeout
		if d, ok := ctx.Deadline(); ok {
			if rem := time.Until(d); rem < deadline {
				deadline = rem
			}
		}
	}
	var out response
	var err error
	pprof.Do(actx, pprof.Labels("shard", q.h.id, "role", role), func(ctx context.Context) {
		store := q.h.store
		if rv != nil {
			if store = rv.store(); store == nil {
				err = errNoKB
				return
			}
		} else if r.cfg.Hook != nil {
			if err = r.cfg.Hook(ctx, q.h.idx, n); err != nil {
				return
			}
		}
		out = response{known: store.KnownPart(q.partID), replica: rv != nil}
		if !q.scatter && !out.known {
			// Owned mode on a part this shard does not hold: report it so
			// the router falls back to a scatter query, instead of ranking
			// every local node against a part the shard was never asked to
			// own.
			return
		}
		// The stage clock rides the request context from the quest
		// middleware; nil (request logging off) makes the timing free.
		clf := core.Classifier{Store: store, Sim: core.Jaccard{}}
		out.nodes = clf.RecommendNodesTimed(reqlog.ClockFrom(ctx), q.partID, q.features)
	})
	if q.rb != nil {
		a := reqlog.ShardAttempt{
			Shard: q.h.idx, Attempt: n, Hedged: n == 2, Replica: replicaID,
			Breaker: q.bstate, Deadline: deadline, Duration: time.Since(start),
		}
		if err != nil {
			a.Err = err.Error()
		}
		q.rb.Attempt(a)
	}
	return out, err
}
