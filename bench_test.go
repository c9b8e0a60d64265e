// Package repro_bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks. Accuracy series are attached as custom
// benchmark metrics (acc@k), so `go test -bench=. -benchmem` both measures
// the runtime feasibility numbers of §5.2.2 and reproduces the accuracy
// shapes of Figs. 11–13, the distribution comparison of Fig. 14, the
// annotator coverage of §4.5.3, and the ablations called out in DESIGN.md.
//
// The paper-scale corpus (7,500 bundles) is generated once and shared.
// Individual cross-validation runs take seconds to tens of seconds each —
// they are full 5-fold CVs over 6,782 bundles, exactly the experiment the
// paper ran.
package repro_bench

import (
	"sync"
	"testing"

	"repro/internal/annotate"
	"repro/internal/bundle"
	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/nhtsa"
	"repro/internal/qatk"
	"repro/internal/taxext"
	"repro/internal/textproc"
)

var (
	corpusOnce sync.Once
	corpus     *datagen.Corpus
)

func paperCorpus(b *testing.B) *datagen.Corpus {
	b.Helper()
	corpusOnce.Do(func() {
		c, err := datagen.Generate(datagen.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		corpus = c
	})
	return corpus
}

// reportAccuracy attaches the accuracy@k curve as benchmark metrics.
func reportAccuracy(b *testing.B, r *eval.Result) {
	for _, k := range eval.DefaultKs {
		b.ReportMetric(r.Accuracy[k], "acc@"+itoa(k))
	}
	b.ReportMetric(r.SecPerBundle*1000, "ms/bundle")
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// runVariant cross-validates one variant b.N times (the work is
// deterministic; b.N is 1 for these macro benchmarks in practice).
func runVariant(b *testing.B, v eval.Variant) {
	c := paperCorpus(b)
	e := eval.New(c.Taxonomy, c.Bundles)
	b.ResetTimer()
	var r *eval.Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = e.Run(v); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportAccuracy(b, r)
}

// --- Figure 11: experiment 1, all reports --------------------------------

func BenchmarkFig11_BagOfWordsJaccard(b *testing.B) {
	runVariant(b, eval.Variant{Name: "bow-j", Model: kb.BagOfWords, Sim: core.Jaccard{}})
}

func BenchmarkFig11_BagOfWordsOverlap(b *testing.B) {
	runVariant(b, eval.Variant{Name: "bow-o", Model: kb.BagOfWords, Sim: core.Overlap{}})
}

func BenchmarkFig11_BagOfConceptsJaccard(b *testing.B) {
	runVariant(b, eval.Variant{Name: "boc-j", Model: kb.BagOfConcepts, Sim: core.Jaccard{}})
}

func BenchmarkFig11_BagOfConceptsOverlap(b *testing.B) {
	runVariant(b, eval.Variant{Name: "boc-o", Model: kb.BagOfConcepts, Sim: core.Overlap{}})
}

func BenchmarkFig11_CodeFrequencyBaseline(b *testing.B) {
	c := paperCorpus(b)
	e := eval.New(c.Taxonomy, c.Bundles)
	b.ResetTimer()
	var r *eval.Result
	for i := 0; i < b.N; i++ {
		r = e.RunFrequencyBaseline()
	}
	b.StopTimer()
	reportAccuracy(b, r)
}

func BenchmarkFig11_CandidateSetBaseline(b *testing.B) {
	c := paperCorpus(b)
	e := eval.New(c.Taxonomy, c.Bundles)
	b.ResetTimer()
	var r *eval.Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = e.RunCandidateSetBaseline(kb.BagOfWords, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportAccuracy(b, r)
}

// --- Figure 12: mechanic reports only ------------------------------------

func BenchmarkFig12_MechanicOnly_BagOfWordsJaccard(b *testing.B) {
	runVariant(b, eval.Variant{Name: "mech-bow-j", Model: kb.BagOfWords, Sim: core.Jaccard{},
		TestSources: []bundle.Source{bundle.SourceMechanic}})
}

func BenchmarkFig12_MechanicOnly_BagOfConceptsJaccard(b *testing.B) {
	runVariant(b, eval.Variant{Name: "mech-boc-j", Model: kb.BagOfConcepts, Sim: core.Jaccard{},
		TestSources: []bundle.Source{bundle.SourceMechanic}})
}

// --- Figure 13: supplier reports only ------------------------------------

func BenchmarkFig13_SupplierOnly_BagOfWordsJaccard(b *testing.B) {
	runVariant(b, eval.Variant{Name: "sup-bow-j", Model: kb.BagOfWords, Sim: core.Jaccard{},
		TestSources: []bundle.Source{bundle.SourceSupplier}})
}

func BenchmarkFig13_SupplierOnly_BagOfConceptsJaccard(b *testing.B) {
	runVariant(b, eval.Variant{Name: "sup-boc-j", Model: kb.BagOfConcepts, Sim: core.Jaccard{},
		TestSources: []bundle.Source{bundle.SourceSupplier}})
}

// --- Figure 14: cross-source error distribution --------------------------

func BenchmarkFig14_DistributionComparison(b *testing.B) {
	c := paperCorpus(b)
	filtered := bundle.FilterMultiOccurrence(c.Bundles)
	tk := qatk.New(c.Taxonomy, qatk.WithModel(kb.BagOfConcepts))
	store, err := tk.Train(filtered)
	if err != nil {
		b.Fatal(err)
	}
	// Fig. 14 shows the comparison for one component class: restrict both
	// sides to the part with the most data, like cmd/experiments -fig 14.
	counts := map[string]int{}
	part := ""
	for _, bd := range filtered {
		counts[bd.PartID]++
		if part == "" || counts[bd.PartID] > counts[part] {
			part = bd.PartID
		}
	}
	var partBundles []*bundle.Bundle
	for _, bd := range filtered {
		if bd.PartID == part {
			partBundles = append(partBundles, bd)
		}
	}
	all := nhtsa.Generate(nhtsa.DefaultGenerateConfig(), c)
	var complaints []nhtsa.Complaint
	for _, cm := range all {
		if cm.Component == part {
			complaints = append(complaints, cm)
		}
	}
	clf := compare.NewClassifier(store, tk)
	b.ResetTimer()
	var public *compare.Distribution
	for i := 0; i < b.N; i++ {
		public, err = clf.ComplaintDistribution(complaints)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	internal := compare.InternalDistribution(partBundles)
	b.ReportMetric(float64(compare.HeadOverlap(internal, public, 10)), "head-overlap@10")
	b.ReportMetric(internal.Top(1)[0].Fraction, "internal-top1-share")
	b.ReportMetric(public.Top(1)[0].Fraction, "public-top1-share")
}

// --- §5.2.2 feasibility: per-bundle classification cost ------------------

func BenchmarkFeasibility_BagOfWords(b *testing.B) {
	benchFeasibility(b, kb.BagOfWords, false)
}

func BenchmarkFeasibility_BagOfWordsStopwordRemoval(b *testing.B) {
	benchFeasibility(b, kb.BagOfWords, true)
}

func BenchmarkFeasibility_BagOfConcepts(b *testing.B) {
	benchFeasibility(b, kb.BagOfConcepts, false)
}

// benchFeasibility measures the steady-state cost of classifying one data
// bundle against a fully built knowledge base — the §5.2.2 numbers.
func benchFeasibility(b *testing.B, model kb.FeatureModel, stopwords bool) {
	c := paperCorpus(b)
	filtered := bundle.FilterMultiOccurrence(c.Bundles)
	opts := []qatk.Option{qatk.WithModel(model)}
	if stopwords {
		opts = append(opts, qatk.WithStopwordRemoval())
	}
	tk := qatk.New(c.Taxonomy, opts...)
	store, err := tk.Train(filtered)
	if err != nil {
		b.Fatal(err)
	}
	clf := tk.Classifier(store)
	// Pre-extract features so the loop measures pure classification.
	feats := make([][]string, len(filtered))
	for i, bd := range filtered {
		f, err := tk.Features(bd, bundle.TestSources())
		if err != nil {
			b.Fatal(err)
		}
		feats[i] = f
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd := filtered[i%len(filtered)]
		clf.Recommend(bd.PartID, feats[i%len(feats)])
	}
}

// --- §4.5.3 annotator coverage + throughput ------------------------------

func BenchmarkAnnotatorCoverage(b *testing.B) {
	c := paperCorpus(b)
	legacy := annotate.NewLegacyAnnotator(c.Taxonomy)
	modern := annotate.NewConceptAnnotator(c.Taxonomy)
	b.ResetTimer()
	var legacyZero, modernZero int
	for i := 0; i < b.N; i++ {
		legacyZero, modernZero = 0, 0
		for _, bd := range c.Bundles {
			cl := bd.CAS()
			if err := (textproc.Tokenizer{}).Process(cl); err != nil {
				b.Fatal(err)
			}
			if err := legacy.Process(cl); err != nil {
				b.Fatal(err)
			}
			if len(cl.Concepts()) == 0 {
				legacyZero++
			}
			cm := bd.CAS()
			if err := (textproc.Tokenizer{}).Process(cm); err != nil {
				b.Fatal(err)
			}
			if err := modern.Process(cm); err != nil {
				b.Fatal(err)
			}
			if len(cm.Concepts()) == 0 {
				modernZero++
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(legacyZero), "legacy-zero-bundles")
	b.ReportMetric(float64(modernZero), "trie-zero-bundles")
}

// --- DESIGN.md §5 ablations ----------------------------------------------

// BenchmarkAblationMajorityVote contrasts standard majority-vote kNN with
// the paper's ranked-list adaptation (§4.3, Fig. 6/7): accuracy@1 of the
// vote winner for k=6 and k=15 vs the ranked list's top suggestion.
func BenchmarkAblationMajorityVote(b *testing.B) {
	c := paperCorpus(b)
	filtered := bundle.FilterMultiOccurrence(c.Bundles)
	tk := qatk.New(c.Taxonomy, qatk.WithModel(kb.BagOfWords))
	n := len(filtered) * 4 / 5
	store, err := tk.Train(filtered[:n])
	if err != nil {
		b.Fatal(err)
	}
	clf := tk.Classifier(store)
	test := filtered[n:]
	feats := make([][]string, len(test))
	for i, bd := range test {
		f, err := tk.Features(bd, bundle.TestSources())
		if err != nil {
			b.Fatal(err)
		}
		feats[i] = f
	}
	b.ResetTimer()
	var vote6, vote15, ranked, flips int
	for it := 0; it < b.N; it++ {
		vote6, vote15, ranked, flips = 0, 0, 0, 0
		for i, bd := range test {
			v6 := clf.MajorityVote(bd.PartID, feats[i], 6)
			v15 := clf.MajorityVote(bd.PartID, feats[i], 15)
			if v6 == bd.ErrorCode {
				vote6++
			}
			if v15 == bd.ErrorCode {
				vote15++
			}
			if v6 != v15 {
				flips++
			}
			list := clf.Recommend(bd.PartID, feats[i])
			if core.Rank(list, bd.ErrorCode) == 1 {
				ranked++
			}
		}
	}
	b.StopTimer()
	total := float64(len(test))
	b.ReportMetric(float64(vote6)/total, "vote6-acc@1")
	b.ReportMetric(float64(vote15)/total, "vote15-acc@1")
	b.ReportMetric(float64(ranked)/total, "ranked-acc@1")
	b.ReportMetric(float64(flips)/total, "k-sensitivity")
}

// BenchmarkAblationCandidateFiltering measures what the §4.3 candidate
// selection saves over scoring the full knowledge base.
func BenchmarkAblationCandidateFiltering(b *testing.B) {
	c := paperCorpus(b)
	filtered := bundle.FilterMultiOccurrence(c.Bundles)
	tk := qatk.New(c.Taxonomy, qatk.WithModel(kb.BagOfConcepts))
	store, err := tk.Train(filtered)
	if err != nil {
		b.Fatal(err)
	}
	var filteredCands, allNodes int64
	for i, bd := range filtered {
		if i >= 500 {
			break
		}
		f, err := tk.Features(bd, bundle.TestSources())
		if err != nil {
			b.Fatal(err)
		}
		filteredCands += int64(len(store.Candidates(bd.PartID, f)))
		allNodes += int64(store.NodeCount())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd := filtered[i%500]
		f, _ := tk.Features(bd, bundle.TestSources())
		store.Candidates(bd.PartID, f)
	}
	b.StopTimer()
	b.ReportMetric(float64(filteredCands)/500, "candidates/query")
	b.ReportMetric(float64(allNodes)/500, "full-scan-nodes/query")
}

// BenchmarkAblationNodeDedup quantifies the configuration-instance
// abstraction of §4.3 (kNN-Model style): knowledge-base size with and
// without deduplication.
func BenchmarkAblationNodeDedup(b *testing.B) {
	c := paperCorpus(b)
	filtered := bundle.FilterMultiOccurrence(c.Bundles)
	tk := qatk.New(c.Taxonomy, qatk.WithModel(kb.BagOfConcepts))
	b.ResetTimer()
	var store *kb.Memory
	for i := 0; i < b.N; i++ {
		var err error
		store, err = tk.Train(filtered)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(store.NodeCount()), "nodes-dedup")
	b.ReportMetric(float64(store.BundleCount()), "nodes-raw")
	b.ReportMetric(float64(store.NodeCount())/float64(store.BundleCount()), "dedup-ratio")
}

// BenchmarkAblationTaxonomyAdaptation runs the §6 extension: per-fold
// taxonomy mining recovers most of the bag-of-words advantage for the
// industrially feasible bag-of-concepts model. Each op scans the bundles
// for candidate terms once and cross-validates through eval's fold loop.
func BenchmarkAblationTaxonomyAdaptation(b *testing.B) {
	c := paperCorpus(b)
	b.ResetTimer()
	var res *eval.Result
	var a *taxext.Adaptation
	for i := 0; i < b.N; i++ {
		e := eval.New(c.Taxonomy, c.Bundles)
		var err error
		if a, err = taxext.NewAdaptation(e.Taxonomy, e.Bundles); err != nil {
			b.Fatal(err)
		}
		if res, err = e.RunAdapted(eval.Variant{Name: "boc adapted", Model: kb.BagOfConcepts, Sim: core.Jaccard{}}, a.Adapt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.Accuracy[1], "adapted-acc@1")
	b.ReportMetric(res.Accuracy[10], "adapted-acc@10")
	b.ReportMetric(float64(a.Added()), "mined-concepts")
}

// --- §3.2 corpus statistics ----------------------------------------------

func BenchmarkCorpusGeneration(b *testing.B) {
	var st datagen.CorpusStats
	for i := 0; i < b.N; i++ {
		c, err := datagen.Generate(datagen.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		st = c.Stats()
	}
	b.ReportMetric(float64(st.Bundles), "bundles")
	b.ReportMetric(float64(st.ErrorCodes), "codes")
	b.ReportMetric(float64(st.SingletonCodes), "singletons")
	b.ReportMetric(st.AvgWordsPerText, "words/text")
	b.ReportMetric(st.AvgConceptsPerText, "concepts/text")
}
