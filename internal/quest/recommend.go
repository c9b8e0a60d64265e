package quest

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/obs/reqlog"
)

// Live recommendation API over the sharded serving tier (internal/shard):
//
//	GET /api/recommend?part=P42&features=f1,f2,f3
//
// Unlike /api/bundle/{ref}, which reads recommendations persisted by the
// batch pipeline, this endpoint classifies on demand — fanned out across
// the shard router with hedging, per-shard breakers, and graceful
// degradation. The response envelope threads the degradation contract to
// the client: `degraded` plus `failed_shards` mean the ranking came from
// the surviving shards only.

// maxRecommendFeatures bounds the distinct features one query may carry.
// A scatter query scores every node on every shard against them; the
// largest bag-of-concepts query in the paper-scale generated corpus has 11.
const maxRecommendFeatures = 1024

type apiRecommendation struct {
	Part         string          `json:"part"`
	Codes        []apiSuggestion `json:"codes"`
	Degraded     bool            `json:"degraded"`
	FailedShards []int           `json:"failed_shards,omitempty"`
	// Scatter reports the unknown-part fallback: no shard owns the part,
	// so every shard ranked its whole partition (§4.3's all-nodes path).
	Scatter bool `json:"scatter"`
	// Hedged reports that at least one sub-query was answered by a hedged
	// second attempt.
	Hedged bool `json:"hedged"`
	// Replica reports that at least one sub-answer was served by a
	// WAL-shipped read replica; Stale additionally reports that a
	// contributing replica was beyond the router's apply-lag bound — the
	// ranking is a consistent but possibly outdated prefix of the
	// knowledge base.
	Replica bool `json:"replica,omitempty"`
	Stale   bool `json:"stale,omitempty"`
}

func (s *Server) apiRecommend(w http.ResponseWriter, r *http.Request) {
	if s.shards == nil {
		apiError(w, http.StatusNotFound, "sharded serving not enabled (knowledge base not trained?)")
		return
	}
	q := r.URL.Query()
	part := q.Get("part")
	if part == "" {
		apiError(w, http.StatusBadRequest, "part parameter required")
		return
	}
	// features may repeat or be comma-separated; both forms compose. The
	// query is a set: the classifier takes its size from len(features), so
	// a duplicate would lower every Jaccard score.
	var features []string
	seen := map[string]bool{}
	for _, v := range q["features"] {
		for _, f := range strings.Split(v, ",") {
			if f = strings.TrimSpace(f); f == "" || seen[f] {
				continue
			}
			if len(features) == maxRecommendFeatures {
				apiError(w, http.StatusBadRequest, fmt.Sprintf("more than %d distinct features", maxRecommendFeatures))
				return
			}
			seen[f] = true
			features = append(features, f)
		}
	}
	if len(features) == 0 {
		apiError(w, http.StatusBadRequest, "features parameter required")
		return
	}

	// Record the query identity and outcome on the request's wide event
	// (nil-safe; the builder rides the context from Instrument).
	rb := reqlog.From(r.Context())
	rb.Query(recorded(part), len(features))
	res, err := s.shards.Query(r.Context(), part, features)
	if err != nil {
		apiError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	rb.Outcome(res.Degraded, res.Hedged, res.Scatter, res.FailedShards)
	rb.ReplicaServed(res.Replica, res.Stale)
	out := apiRecommendation{
		Part: part, Degraded: res.Degraded, FailedShards: res.FailedShards,
		Scatter: res.Scatter, Hedged: res.Hedged,
		Replica: res.Replica, Stale: res.Stale,
		Codes: make([]apiSuggestion, 0, len(res.Codes)),
	}
	limit := len(res.Codes)
	if limit > SuggestionLimit {
		limit = SuggestionLimit
	}
	for i, sc := range res.Codes[:limit] {
		out.Codes = append(out.Codes, apiSuggestion{Rank: i + 1, Code: sc.Code, Score: sc.Score})
	}
	writeJSON(w, http.StatusOK, out)
}
