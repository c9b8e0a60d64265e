package taxext

import (
	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/qatk"
	"repro/internal/taxonomy"
)

// Evaluate cross-validates the bag-of-concepts classifier with per-fold
// taxonomy adaptation: in every fold the miner sees only the training
// bundles, the taxonomy is extended with its proposals, and the test fold
// is classified with the extended concept vocabulary. This answers the
// question §5.2.2 leaves open — how much of the bag-of-words advantage an
// improved domain-specific resource can recover — without leaking test
// data into the resource.
func Evaluate(tax *taxonomy.Taxonomy, bundles []*bundle.Bundle, cfg Config, sim core.Similarity, folds int, seed int64, ks []int) (eval.AccuracyAtK, int, error) {
	if len(ks) == 0 {
		ks = eval.DefaultKs
	}
	filtered := bundle.FilterMultiOccurrence(bundles)
	foldIdx := eval.StratifiedFolds(filtered, folds, seed)
	hits := map[int]int{}
	total := 0
	addedTotal := 0

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
		proposals, err := Mine(tax, train, cfg)
		if err != nil {
			return nil, 0, err
		}
		ext, added, err := Apply(tax, proposals)
		if err != nil {
			return nil, 0, err
		}
		addedTotal += added

		tk := qatk.New(ext, qatk.WithSimilarity(sim))
		mem, err := tk.Train(train)
		if err != nil {
			return nil, 0, err
		}
		for _, idx := range foldIdx[f] {
			b := filtered[idx]
			list, err := tk.Recommend(mem, b)
			if err != nil {
				return nil, 0, err
			}
			r := core.Rank(list, b.ErrorCode)
			for _, k := range ks {
				if r > 0 && r <= k {
					hits[k]++
				}
			}
			total++
		}
	}
	acc := eval.AccuracyAtK{}
	for _, k := range ks {
		acc[k] = float64(hits[k]) / float64(total)
	}
	return acc, addedTotal / folds, nil
}
