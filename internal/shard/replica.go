package shard

import (
	"sync"
	"time"

	"repro/internal/kb"
)

// DefaultMaxApplyLag is the staleness bound replicas are held to before a
// read served from them is flagged stale (-max-apply-lag in questd).
const DefaultMaxApplyLag = 500 * time.Millisecond

// ReplicaTarget is what the router needs from a WAL-shipped read replica
// (internal/repl.Replica implements it structurally; the interface lives
// here so shard does not import the replication layer). A target serves
// the FULL knowledge base — the router cuts each shard's partition itself
// — and swaps in a new Memory whenever its applied state changes the
// knowledge base (reload or re-sync), so Store is fetched per query.
type ReplicaTarget interface {
	// ID names the replica in health, metrics, and wide events.
	ID() string
	// Ready reports whether the replica has state to serve at all.
	Ready() bool
	// ApplyLag reports how far the replica's applied state trails the
	// primary's log head; the router compares it to MaxApplyLag to decide
	// fresh (hedge-eligible) vs stale (rescue-only, flagged).
	ApplyLag() time.Duration
	// Generation reports the primary generation last applied (/readyz).
	Generation() uint64
	// Store returns the replica's current knowledge base (nil when not
	// Ready). A returned Memory is never mutated; changes arrive as a new one.
	Store() *kb.Memory
}

// ReplicaHealth is one replica's health view, served by /readyz.
type ReplicaHealth struct {
	ID                    string  `json:"id"`
	Ready                 bool    `json:"ready"`
	LastAppliedGeneration uint64  `json:"last_applied_generation"`
	ApplyLagSeconds       float64 `json:"apply_lag_seconds"`
	// Stale marks a replica lagging beyond the router's MaxApplyLag: it
	// still serves rescues, but its answers carry stale: true.
	Stale bool `json:"stale"`
}

// ReplicaHealth reports every configured replica's apply position.
func (r *Router) ReplicaHealth() []ReplicaHealth {
	out := make([]ReplicaHealth, len(r.cfg.Replicas))
	for i, t := range r.cfg.Replicas {
		lag := t.ApplyLag()
		out[i] = ReplicaHealth{
			ID:                    t.ID(),
			Ready:                 t.Ready(),
			LastAppliedGeneration: t.Generation(),
			ApplyLagSeconds:       lag.Seconds(),
			Stale:                 lag > r.cfg.MaxApplyLag,
		}
	}
	return out
}

// replicaView is shard idx's partition of a replica's knowledge base: a
// kb.Subset cut once per Memory the replica hands out, so a reload or
// re-sync is picked up on the next attempt and a replica attempt ranks
// through the same Memory.Candidates as the primary it hedges. Node IDs
// pass through untouched, so rankings served from a replica merge
// bit-identically with primary-shard rankings.
type replicaView struct {
	t     ReplicaTarget
	shard int
	n     int

	mu   sync.Mutex
	src  *kb.Memory //qatk:guardedby mu — the replica Memory part was cut from
	part *kb.Memory //qatk:guardedby mu — this shard's Subset of src
}

// store returns the shard's partition of the replica's current knowledge
// base, or nil while the replica has none to serve.
func (v *replicaView) store() kb.Store {
	m := v.t.Store()
	if m == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if m != v.src {
		v.src, v.part = m, kb.Subset(m, v.shard, v.n)
	}
	return v.part
}

// pickReplica chooses the serving replica for shard h: the ready target
// with the smallest apply lag, optionally restricted to fresh ones (lag
// within MaxApplyLag). The second return is the chosen target's lag at
// pick time — the staleness verdict the response carries.
func (r *Router) pickReplica(h *handle, requireFresh bool) (*replicaView, time.Duration) {
	var best *replicaView
	var bestLag time.Duration
	for _, rv := range h.replicas {
		if !rv.t.Ready() {
			continue
		}
		lag := rv.t.ApplyLag()
		if requireFresh && lag > r.cfg.MaxApplyLag {
			continue
		}
		if best == nil || lag < bestLag {
			best, bestLag = rv, lag
		}
	}
	return best, bestLag
}
