// Package core implements the paper's primary contribution (§4.2–4.3): a
// classification algorithm derived from k-Nearest-Neighbors, adapted to the
// extreme multi-class setting of error-code assignment. Instead of a
// majority vote over the k nearest neighbors — which Fig. 6 shows to be
// unstable under the sparsity of 553 classes — the classifier outputs a
// list of all potential error codes ranked by the similarity of the
// knowledge-base instances to the data bundle, cut off at the 25
// best-scored candidate nodes for presentation to the quality expert.
//
// The similarity measure, the feature model and the class-assignment rule
// are all pluggable, realizing the "bare-bones classification algorithm
// with maximum parametrizability" of §4.2.
package core

import (
	"repro/internal/kb"
	"repro/internal/obs/reqlog"
)

// Similarity scores two feature sets from their intersection size and
// cardinalities. Implementations must be in [0, 1], and two sets that
// share nothing must score 0: Score(0, a, b) == 0 for every a and b. The
// knowledge base's ranking relies on that to place, unscored, the nodes of
// an unknown part's candidate set that share no feature with the query
// (kb.Scorer, which every Similarity is).
type Similarity interface {
	Name() string
	Score(shared, sizeA, sizeB int) float64
}

// Jaccard is the Jaccard similarity coefficient |A∩B| / |A∪B|.
type Jaccard struct{}

// Name implements Similarity.
func (Jaccard) Name() string { return "jaccard" }

// Score implements Similarity.
func (Jaccard) Score(shared, sizeA, sizeB int) float64 {
	union := sizeA + sizeB - shared
	if union == 0 {
		return 0
	}
	return float64(shared) / float64(union)
}

// Overlap is the overlap coefficient |A∩B| / min(|A|, |B|).
type Overlap struct{}

// Name implements Similarity.
func (Overlap) Name() string { return "overlap" }

// Score implements Similarity.
func (Overlap) Score(shared, sizeA, sizeB int) float64 {
	m := sizeA
	if sizeB < m {
		m = sizeB
	}
	if m == 0 {
		return 0
	}
	return float64(shared) / float64(m)
}

// ScoredCode is one ranked recommendation.
type ScoredCode struct {
	Code  string
	Score float64
}

// DefaultNodeCutoff is the number of best-scored candidate nodes whose
// error codes are retrieved (§4.3: "We retrieve the error codes of the 25
// best-scored candidate nodes").
const DefaultNodeCutoff = 25

// Classifier is the ranked-list kNN-derived classifier.
type Classifier struct {
	Store kb.Store
	Sim   Similarity
}

// New creates a classifier over a knowledge base with the given similarity.
func New(store kb.Store, sim Similarity) *Classifier {
	return &Classifier{Store: store, Sim: sim}
}

// RecommendNodes returns the best-scored candidate nodes (at most
// DefaultNodeCutoff) in rank order — score descending, ties broken by
// error code, then node ID (kb.CompareScored) — before codes are
// deduplicated. Recommend is CodesFromNodes(RecommendNodes(...)).
func (c *Classifier) RecommendNodes(partID string, features []string) []kb.Scored {
	return c.RecommendNodesTimed(nil, partID, features)
}

// RecommendNodesTimed is RecommendNodes with per-stage attribution: the
// knowledge base's ranking pass, which retrieves, scores and selects in
// one walk, is credited to the request's wide event as the score stage
// through sc. A nil clock (request logging off, or callers outside the
// serving path) makes the timing free.
func (c *Classifier) RecommendNodesTimed(sc *reqlog.StageClock, partID string, features []string) []kb.Scored {
	t := sc.Start()
	nodes, _ := c.Store.Rank(partID, features, c.Sim, DefaultNodeCutoff)
	sc.Lap(reqlog.StageScore, t)
	return nodes
}

// CodesFromNodes collapses a ranked node list to the distinct error codes
// in rank order, each carrying the score of its best node. A node's code
// is looked up among the codes already kept: every caller passes a
// ranking cut to DefaultNodeCutoff, so the scan is short and needs no set.
//
//qatk:hotpath
func CodesFromNodes(nodes []kb.Scored) []ScoredCode {
	//qatk:allowalloc the code list is the function's product, returned to the caller and bounded by the node cutoff
	out := make([]ScoredCode, 0, len(nodes))
next:
	for _, sn := range nodes {
		for _, c := range out {
			if c.Code == sn.Code {
				continue next
			}
		}
		out = append(out, ScoredCode{Code: sn.Code, Score: sn.Score})
	}
	return out
}

// Recommend returns the ranked error-code list for a data bundle given its
// part ID and extracted feature set: the distinct error codes of the
// best-scored candidate nodes, each with the score of its best node, in
// rank order. At most DefaultNodeCutoff nodes are consumed, so the list
// holds at most that many codes.
func (c *Classifier) Recommend(partID string, features []string) []ScoredCode {
	return CodesFromNodes(c.RecommendNodes(partID, features))
}

// RecommendCounted is Recommend that also reports the size of the
// candidate set it scored — the similarity computations the feasibility
// numbers of §5.2.2 count — from the same retrieval that ranked it.
func (c *Classifier) RecommendCounted(partID string, features []string) ([]ScoredCode, int) {
	nodes, candidates := c.Store.Rank(partID, features, c.Sim, DefaultNodeCutoff)
	return CodesFromNodes(nodes), candidates
}

// MajorityVote is the standard unweighted instance-based kNN assignment
// (Fig. 6), kept as an ablation: the class of the query is the most common
// error code among the k nearest nodes. Ties are broken toward the code
// whose best node scores higher, then lexicographically. It returns ""
// when there are no candidates.
func (c *Classifier) MajorityVote(partID string, features []string, k int) string {
	if k <= 0 {
		k = 6
	}
	scored, _ := c.Store.Rank(partID, features, c.Sim, k)
	if len(scored) == 0 {
		return ""
	}
	votes := map[string]int{}
	best := map[string]float64{}
	for _, sn := range scored {
		votes[sn.Code]++
		if sn.Score > best[sn.Code] {
			best[sn.Code] = sn.Score
		}
	}
	winner := ""
	for code, v := range votes {
		if winner == "" {
			winner = code
			continue
		}
		switch {
		case v > votes[winner]:
			winner = code
		case v == votes[winner] && best[code] > best[winner]:
			winner = code
		case v == votes[winner] && best[code] == best[winner] && code < winner:
			winner = code
		}
	}
	return winner
}

// WeightedVote is the similarity-weighted variant of majority voting that
// §4.2 mentions ("this majority vote can also be weighted by the
// individual nearness of neighbors"): each of the k nearest nodes votes
// with its similarity score. Kept alongside MajorityVote as an ablation;
// the ranked list remains the paper's adaptation of choice.
func (c *Classifier) WeightedVote(partID string, features []string, k int) string {
	if k <= 0 {
		k = 6
	}
	scored, _ := c.Store.Rank(partID, features, c.Sim, k)
	if len(scored) == 0 {
		return ""
	}
	weights := map[string]float64{}
	for _, sn := range scored {
		weights[sn.Code] += sn.Score
	}
	winner := ""
	for code, w := range weights {
		if winner == "" || w > weights[winner] || (w == weights[winner] && code < winner) {
			winner = code
		}
	}
	return winner
}

// Rank returns the 1-based position of the correct code in a ranked list,
// or 0 when absent. Evaluation helpers use it for Accuracy@k.
func Rank(list []ScoredCode, code string) int {
	for i, sc := range list {
		if sc.Code == code {
			return i + 1
		}
	}
	return 0
}
