// Package shard is the sharded QUEST serving tier (ROADMAP item 2): the
// knowledge base is partitioned by part ID into N in-process shard
// workers, each owning its own store view and classifier state, behind a
// Router that fans queries out, merges ranked lists deterministically, and
// survives misbehaving shards. The paper's candidate selection (§4.3) keys
// on part ID, so shard routing is free; what this package builds is the
// robustness layer that makes the fan-out trustworthy — per-shard
// deadlines derived from the request budget, hedged second attempts
// (first-response-wins, loser cancelled via context), per-shard
// consecutive-failure circuit breakers, and graceful degradation to
// partial results marked `degraded`.
package shard

import (
	"context"
	"errors"
	"runtime/pprof"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/obs/reqlog"
)

// FaultHook runs at the start of every shard query attempt; the chaos
// tests inject deterministic misbehavior through it (internal/faults
// provides slow-shard, error-shard and wedged-shard modes). It may sleep,
// return an error, or block until ctx is cancelled; a nil hook is a
// healthy shard. attempt is 1 for the primary attempt, 2 for the hedge.
type FaultHook func(ctx context.Context, shard, attempt int) error

// ErrShardClosed reports a query dispatched to a closed router.
var ErrShardClosed = errors.New("shard: router closed")

// request is one sub-query travelling from the router to a shard worker.
type request struct {
	//lint:ignore qatklint/ctxflow the sanctioned channel-request exception: the request struct is the call — it carries the caller's ctx across the worker channel for exactly one dispatch and is never retained
	ctx      context.Context
	partID   string
	features []string
	// scatter selects all-local-nodes ranking for parts no shard owns;
	// owned mode answers only when the shard knows the part.
	scatter bool
	attempt int
	resp    chan response // buffered (1): the worker never blocks on reply
}

// response is a shard worker's answer.
type response struct {
	nodes []core.ScoredNode
	known bool
	err   error
	// replica marks an answer served by a read replica; stale additionally
	// marks the replica as lagging beyond the router's MaxApplyLag bound
	// when it answered.
	replica bool
	stale   bool
}

// worker is one in-process serving unit: a store partition (or a shard's
// partition of a replica), its own classifier settings, and a small pool
// of serving goroutines pulled from one request channel — so a wedged
// request occupies one goroutine while the hedged attempt proceeds on
// another. Routers also run one worker per shard x replica over the
// replica's current knowledge base; those carry the replica marker for
// pprof role attribution.
type worker struct {
	id      int
	idStr   string // pre-rendered for pprof labels
	replica bool   // serving a replica partition, not a primary partition
	// store returns the partition to rank over: fixed for a primary, the
	// replica's current one for a replica worker (nil while it has none).
	store   func() kb.Store
	sim     core.Similarity
	cutoff  int
	reqs    chan request
	hook    FaultHook
	quit    chan struct{}
	closeMu sync.Once
}

// errNoKB reports a replica attempt that found the replica without a
// knowledge base (crashed or re-bootstrapping since it was picked).
var errNoKB = errors.New("shard: replica has no knowledge base to serve")

// newWorker builds and starts one shard with `pool` serving goroutines.
func newWorker(id int, store func() kb.Store, sim core.Similarity, cutoff, pool int, hook FaultHook) *worker {
	w := &worker{
		id:     id,
		idStr:  strconv.Itoa(id),
		store:  store,
		sim:    sim,
		cutoff: cutoff,
		reqs:   make(chan request),
		hook:   hook,
		quit:   make(chan struct{}),
	}
	for i := 0; i < pool; i++ {
		go w.loop()
	}
	return w
}

// loop serves requests until the router closes.
func (w *worker) loop() {
	for {
		select {
		case <-w.quit:
			return
		case req := <-w.reqs:
			w.serve(req)
		}
	}
}

// serve answers one request. The response channel is buffered, so the
// send never blocks even when the caller has already given up. The work
// runs under pprof labels (shard ID, primary vs hedge role) so CPU
// profiles attribute serving time per shard and show what hedges cost.
func (w *worker) serve(req request) {
	if req.ctx.Err() != nil {
		return // the caller's deadline already expired in the queue
	}
	role := "primary"
	switch {
	case w.replica:
		role = "replica"
	case req.attempt > 1:
		role = "hedge"
	}
	pprof.Do(req.ctx, pprof.Labels("shard", w.idStr, "role", role), func(ctx context.Context) {
		w.answer(ctx, req)
	})
}

// answer produces the response for one labeled request.
func (w *worker) answer(ctx context.Context, req request) {
	if w.hook != nil {
		if err := w.hook(ctx, w.id, req.attempt); err != nil {
			req.resp <- response{err: err}
			return
		}
	}
	store := w.store()
	if store == nil {
		req.resp <- response{err: errNoKB}
		return
	}
	known := store.KnownPart(req.partID)
	if !req.scatter && !known {
		// Owned mode on a part this shard does not hold: report it so the
		// router falls back to a scatter query, instead of ranking every
		// local node against a part the shard was never asked to own.
		req.resp <- response{known: false}
		return
	}
	// The stage clock rides the request context from the quest middleware;
	// nil (request logging off) makes the classifier's timing free.
	sc := reqlog.ClockFrom(ctx)
	clf := core.Classifier{Store: store, Sim: w.sim, NodeCutoff: w.cutoff}
	req.resp <- response{nodes: clf.RecommendNodesTimed(sc, req.partID, req.features), known: known}
}

// query dispatches one attempt and waits for the answer or the attempt
// context's expiry.
func (w *worker) query(ctx context.Context, partID string, features []string, scatter bool, attempt int) (response, error) {
	req := request{
		ctx: ctx, partID: partID, features: features,
		scatter: scatter, attempt: attempt,
		resp: make(chan response, 1),
	}
	select {
	case w.reqs <- req:
	case <-ctx.Done():
		return response{}, ctx.Err()
	case <-w.quit:
		return response{}, ErrShardClosed
	}
	select {
	case out := <-req.resp:
		if out.err != nil {
			return response{}, out.err
		}
		return out, nil
	case <-ctx.Done():
		return response{}, ctx.Err()
	case <-w.quit:
		return response{}, ErrShardClosed
	}
}

// close stops the worker pool; idempotent. In-flight attempts finish on
// their own deadlines (a wedged hook is released by its attempt context).
func (w *worker) close() { w.closeMu.Do(func() { close(w.quit) }) }
