package taxext

import (
	"fmt"
	"sort"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/qatk"
	"repro/internal/taxonomy"
	"repro/internal/textproc"
)

// This file freezes the taxonomy-adaptation experiment as it ran when it
// was a cross-validation driver of its own: stratified folds drawn here,
// and in every fold a whole-bundle mining pass over the fold's training
// bundles, Apply, Toolkit.Train over the training bundles and
// Toolkit.Recommend for each test bundle. It is the oracle of
// TestAdaptationMatchesFrozen, so that the adapted run through eval's fold
// loop and the per-bundle term scan are checked against the path they
// replaced rather than against themselves. Only Apply and the toolkit's
// engines come from the production packages.

// frozenMine is the miner with its thresholds (support 3, confidence 0.6,
// terms of at least 4 bytes), analysing every bundle it is given.
func frozenMine(tax *taxonomy.Taxonomy, bundles []*bundle.Bundle) ([]Proposal, error) {
	const minSupport, minConfidence, minTermLength = 3, 0.6, 4
	tk := qatk.New(tax)
	stop := textproc.NewStopwordSet()

	// term → code → bundle count
	occur := map[string]map[string]int{}
	for _, b := range bundles {
		if b.ErrorCode == "" {
			return nil, fmt.Errorf("taxext: bundle %s has no error code", b.RefNo)
		}
		c := b.CAS(bundle.TrainingSources()...)
		if _, err := tk.Analyze(c); err != nil {
			return nil, err
		}
		covered := make([]bool, len(c.Text()))
		for _, m := range c.Concepts() {
			for i := m.Begin; i < m.End; i++ {
				covered[i] = true
			}
		}
		seen := map[string]bool{}
		for _, t := range c.Tokens() {
			if covered[t.Begin] {
				continue
			}
			w := t.Norm
			if len(w) < minTermLength || stop.Contains(w) || seen[w] {
				continue
			}
			seen[w] = true
			m := occur[w]
			if m == nil {
				m = map[string]int{}
				occur[w] = m
			}
			m[b.ErrorCode]++
		}
	}

	var out []Proposal
	for term, codes := range occur {
		support := 0
		bestCode, bestN := "", 0
		for code, n := range codes {
			support += n
			if n > bestN || (n == bestN && code < bestCode) {
				bestCode, bestN = code, n
			}
		}
		if support < minSupport {
			continue
		}
		conf := float64(bestN) / float64(support)
		if conf < minConfidence {
			continue
		}
		out = append(out, Proposal{Term: term, ErrorCode: bestCode, Support: support, Confidence: conf})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Term < out[j].Term
	})
	return out, nil
}

// frozenEvaluate cross-validates the bag-of-concepts classifier with
// per-fold taxonomy adaptation. It returns the accuracy@k over all test
// bundles, each fold's accuracy@k and the concepts each fold added.
func frozenEvaluate(tax *taxonomy.Taxonomy, bundles []*bundle.Bundle, sim core.Similarity, folds int, seed int64, ks []int) (eval.AccuracyAtK, []eval.AccuracyAtK, []int, error) {
	filtered := bundle.FilterMultiOccurrence(bundles)
	foldIdx := eval.StratifiedFolds(filtered, folds, seed)
	hits := map[int]int{}
	total := 0
	var perFold []eval.AccuracyAtK
	var added []int

	for f := 0; f < folds; f++ {
		inTest := make(map[int]bool, len(foldIdx[f]))
		for _, idx := range foldIdx[f] {
			inTest[idx] = true
		}
		var train []*bundle.Bundle
		for i, b := range filtered {
			if !inTest[i] {
				train = append(train, b)
			}
		}
		proposals, err := frozenMine(tax, train)
		if err != nil {
			return nil, nil, nil, err
		}
		ext, n, err := Apply(tax, proposals)
		if err != nil {
			return nil, nil, nil, err
		}
		added = append(added, n)

		tk := qatk.New(ext, qatk.WithSimilarity(sim))
		mem, err := tk.Train(train)
		if err != nil {
			return nil, nil, nil, err
		}
		foldHits := map[int]int{}
		for _, idx := range foldIdx[f] {
			b := filtered[idx]
			list, err := tk.Recommend(mem, b)
			if err != nil {
				return nil, nil, nil, err
			}
			r := core.Rank(list, b.ErrorCode)
			for _, k := range ks {
				if r > 0 && r <= k {
					foldHits[k]++
				}
			}
		}
		foldAcc := eval.AccuracyAtK{}
		for _, k := range ks {
			foldAcc[k] = float64(foldHits[k]) / float64(len(foldIdx[f]))
			hits[k] += foldHits[k]
		}
		perFold = append(perFold, foldAcc)
		total += len(foldIdx[f])
	}
	acc := eval.AccuracyAtK{}
	for _, k := range ks {
		acc[k] = float64(hits[k]) / float64(total)
	}
	return acc, perFold, added, nil
}
