package qatk

import (
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/kb"
)

// CrossValidate runs the §5.1 protocol — stratified k-fold CV with
// accuracy@k — for an arbitrarily configured Toolkit, including ones using
// the optional preprocessing engines that the eval package's fixed
// variants do not cover. Singleton-code bundles are filtered exactly as in
// the paper.
func (t *Toolkit) CrossValidate(bundles []*bundle.Bundle, folds int, seed int64, ks []int) (*eval.Result, error) {
	if len(ks) == 0 {
		ks = eval.DefaultKs
	}
	filtered := bundle.FilterMultiOccurrence(bundles)
	foldIdx := eval.StratifiedFolds(filtered, folds, seed)

	// Precompute features once per bundle for both phases.
	trainFeats := make([][]string, len(filtered))
	testFeats := make([][]string, len(filtered))
	for i, b := range filtered {
		f, err := t.Features(b, bundle.TrainingSources())
		if err != nil {
			return nil, err
		}
		trainFeats[i] = f
		if f, err = t.Features(b, bundle.TestSources()); err != nil {
			return nil, err
		}
		testFeats[i] = f
	}

	res := &eval.Result{Variant: t.variantName(), Accuracy: eval.AccuracyAtK{}}
	hits := map[int]int{}
	total := 0
	var seconds float64
	for f := 0; f < folds; f++ {
		inTest := make(map[int]bool, len(foldIdx[f]))
		for _, idx := range foldIdx[f] {
			inTest[idx] = true
		}
		mem := newMemoryFrom(filtered, trainFeats, inTest)
		res.KBNodes += mem.NodeCount()
		clf := core.New(mem, t.Sim)
		start := time.Now()
		for _, idx := range foldIdx[f] {
			b := filtered[idx]
			r := core.Rank(clf.Recommend(b.PartID, testFeats[idx]), b.ErrorCode)
			for _, k := range ks {
				if r > 0 && r <= k {
					hits[k]++
				}
			}
			total++
		}
		seconds += time.Since(start).Seconds()
	}
	for _, k := range ks {
		res.Accuracy[k] = float64(hits[k]) / float64(total)
	}
	res.SecPerBundle = seconds / float64(total)
	res.TestBundles = total / folds
	res.KBNodes /= folds
	return res, nil
}

func (t *Toolkit) variantName() string {
	name := t.Model.String() + " + " + t.Sim.Name()
	if t.Stopwords {
		name += " + stopword removal"
	}
	if t.SpellNorm {
		name += " + spell normalization"
	}
	if t.Stemming {
		name += " + stemming"
	}
	return name
}

// newMemoryFrom builds a knowledge base from the non-test bundles.
func newMemoryFrom(bundles []*bundle.Bundle, feats [][]string, inTest map[int]bool) *kb.Memory {
	mem := kb.NewMemory()
	for i, b := range bundles {
		if !inTest[i] {
			mem.AddBundle(b.PartID, b.ErrorCode, feats[i])
		}
	}
	return mem
}
