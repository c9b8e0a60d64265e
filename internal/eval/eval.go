// Package eval runs the paper's experiments (§5): stratified 5-fold
// cross-validation over the data bundles whose error code appears more than
// once, reporting Accuracy@k for k ∈ {1, 5, 10, 15, 20, 25} for every
// classifier variant and both baselines, plus the wall-clock feasibility
// numbers of §5.2.2.
package eval

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/baseline"
	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/qatk"
	"repro/internal/taxonomy"
)

// Span names opened by crossValidate (Run, RunAdapted and both baselines).
const (
	spanVariant = "eval.variant"
	spanFold    = "eval.fold"
)

// DefaultKs are the cutoffs of the paper's accuracy curves.
var DefaultKs = []int{1, 5, 10, 15, 20, 25}

// AccuracyAtK maps a cutoff k to the share of test bundles whose correct
// error code appears within the first k suggestions (A@k of §5.1).
type AccuracyAtK map[int]float64

// Variant is one configuration of the adapted classification algorithm.
type Variant struct {
	Name        string
	Model       kb.FeatureModel
	Sim         core.Similarity
	Stopwords   bool            // remove stopwords (bag-of-words only, §5.2.2)
	SpellNorm   bool            // normalize spelling against the taxonomy vocabulary (§6)
	Stemming    bool            // stem bag-of-words features (§6)
	TestSources []bundle.Source // report sources for the test features; nil or empty = all test-phase sources
}

// StandardVariants are the four variants of experiment 1 (Fig. 11).
func StandardVariants() []Variant {
	return []Variant{
		{Name: "bag-of-words + jaccard", Model: kb.BagOfWords, Sim: core.Jaccard{}},
		{Name: "bag-of-words + overlap", Model: kb.BagOfWords, Sim: core.Overlap{}},
		{Name: "bag-of-concepts + jaccard", Model: kb.BagOfConcepts, Sim: core.Jaccard{}},
		{Name: "bag-of-concepts + overlap", Model: kb.BagOfConcepts, Sim: core.Overlap{}},
	}
}

// SourceVariants restricts the standard variants to a single test report
// source (experiment 2, Figs. 12/13).
func SourceVariants(prefix string, src bundle.Source) []Variant {
	out := StandardVariants()
	for i := range out {
		out[i].Name = prefix + " " + out[i].Name
		out[i].TestSources = []bundle.Source{src}
	}
	return out
}

// Result is the cross-validated outcome of one variant.
type Result struct {
	Variant       string
	Accuracy      AccuracyAtK // mean over folds
	PerFold       []AccuracyAtK
	SecPerBundle  float64 // mean classification seconds per test bundle
	TestBundles   int     // average test-set size per fold
	KBNodes       int     // average knowledge-base size per fold
	Comparisons   int64   // total candidate similarity computations
	CandidateSize float64 // mean candidate-set size per query
}

// Experiment holds a prepared evaluation over a corpus.
type Experiment struct {
	Taxonomy *taxonomy.Taxonomy
	Bundles  []*bundle.Bundle // already filtered to multi-occurrence codes
	Folds    int
	Seed     int64
	Ks       []int
	// Clock times the classification loop for the §5.2.2 feasibility
	// numbers. It is an injected dependency (qatklint/determinism forbids
	// calling time.Now here): tests substitute a fake to keep results
	// bit-identical across runs. Nil disables timing.
	Clock func() time.Time
	// Tracer records one span per cross-validated variant with a child
	// span per fold. Nil disables tracing. (The tracer carries its own
	// clock; spans do not affect the deterministic results.)
	Tracer *obs.Tracer
	// Flight is the black-box flight recorder: Run heartbeats a stall
	// guard per cross-validation fold, so a wedged variant trips the
	// stall watchdog with fold attribution. Nil disables it.
	Flight *flight.Recorder
}

// New prepares an experiment: it filters singleton-code bundles exactly as
// §3.2 prescribes and fixes folds and cutoffs to the paper's setup.
func New(tax *taxonomy.Taxonomy, bundles []*bundle.Bundle) *Experiment {
	return &Experiment{
		Taxonomy: tax,
		Bundles:  bundle.FilterMultiOccurrence(bundles),
		Folds:    5,
		Seed:     1,
		Ks:       DefaultKs,
		Clock:    time.Now,
	}
}

// elapsed returns the seconds since start according to the injected
// clock, 0 when timing is disabled.
func (e *Experiment) elapsed(start time.Time) float64 {
	if e.Clock == nil {
		return 0
	}
	return e.Clock().Sub(start).Seconds()
}

// now reads the injected clock (zero time when disabled).
func (e *Experiment) now() time.Time {
	if e.Clock == nil {
		return time.Time{}
	}
	return e.Clock()
}

// StratifiedFolds partitions bundle indexes into folds so that every error
// code's bundles are spread as evenly as possible across folds ("stratified
// 5-fold cross-validation", §5.1).
func StratifiedFolds(bundles []*bundle.Bundle, folds int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	byCode := map[string][]int{}
	var codes []string
	for i, b := range bundles {
		if len(byCode[b.ErrorCode]) == 0 {
			codes = append(codes, b.ErrorCode)
		}
		byCode[b.ErrorCode] = append(byCode[b.ErrorCode], i)
	}
	sort.Strings(codes)
	out := make([][]int, folds)
	next := 0
	for _, code := range codes {
		idxs := byCode[code]
		rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
		for _, idx := range idxs {
			out[next%folds] = append(out[next%folds], idx)
			next++
		}
	}
	return out
}

// sameToolkit reports whether a and b configure the analysis alike, so
// that their features are equal.
func sameToolkit(a, b Variant) bool {
	return a.Model == b.Model && a.Stopwords == b.Stopwords && a.SpellNorm == b.SpellNorm && a.Stemming == b.Stemming
}

// testSources returns the report sources of v's test features: all
// test-phase sources unless v names some.
func (v Variant) testSources() []bundle.Source {
	if len(v.TestSources) == 0 {
		return bundle.TestSources()
	}
	return v.TestSources
}

// variantClassifier builds variant v's classifier for one fold over the
// fold's knowledge base, given every bundle's test features.
type variantClassifier func(v Variant, mem *kb.Memory, testFeats [][]string) foldClassifier

// toolkit builds the toolkit that analyses reports for v over tax.
func (v Variant) toolkit(tax *taxonomy.Taxonomy) *qatk.Toolkit {
	return qatk.New(tax, func(t *qatk.Toolkit) {
		t.Model, t.Stopwords, t.SpellNorm, t.Stemming = v.Model, v.Stopwords, v.SpellNorm, v.Stemming
	})
}

// featureSets analyses every bundle once through tk: one
// qatk.Toolkit.FeatureSets call per bundle yields its features for each
// of sets, as feats[set][bundle].
func (e *Experiment) featureSets(tk *qatk.Toolkit, sets [][]bundle.Source) ([][][]string, error) {
	feats := make([][][]string, len(sets))
	for s := range feats {
		feats[s] = make([][]string, len(e.Bundles))
	}
	for i, b := range e.Bundles {
		fs, err := tk.FeatureSets(b, sets...)
		if err != nil {
			return nil, fmt.Errorf("eval: bundle %s: %w", b.RefNo, err)
		}
		for s := range fs {
			feats[s][i] = fs[s]
		}
	}
	return feats, nil
}

// crossValidateAll cross-validates variants, each result at its variant's
// index, stopping at the first failure. It groups the variants by toolkit
// configuration and analyses every bundle once per group, for its
// training features and its features for each distinct test-source set
// of the group. The group's variants all read those tables, which are
// dropped before the next group is analysed.
func (e *Experiment) crossValidateAll(variants []Variant, classifier variantClassifier) ([]*Result, error) {
	out := make([]*Result, len(variants))
	for i, v := range variants {
		if out[i] != nil { // ran in an earlier variant's group
			continue
		}
		var group []int
		for j := i; j < len(variants); j++ {
			if sameToolkit(variants[j], v) {
				group = append(group, j)
			}
		}
		if err := e.crossValidateGroup(variants, group, classifier, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// crossValidateGroup cross-validates the variants at indexes group, which
// share a toolkit configuration, into out.
func (e *Experiment) crossValidateGroup(variants []Variant, group []int, classifier variantClassifier, out []*Result) error {
	sets := [][]bundle.Source{bundle.TrainingSources()}
	table := make([]int, len(group)) // each variant's test set, an index into sets
	for g, i := range group {
		src := variants[i].testSources()
		table[g] = slices.IndexFunc(sets, func(s []bundle.Source) bool { return slices.Equal(s, src) })
		if table[g] < 0 {
			table[g] = len(sets)
			sets = append(sets, src)
		}
	}
	feats, err := e.featureSets(variants[group[0]].toolkit(e.Taxonomy), sets)
	if err != nil {
		return err
	}
	for g, i := range group {
		test := feats[table[g]]
		out[i], err = e.crossValidate(variants[i], func([]int) ([][]string, [][]string, error) {
			return feats[0], test, nil
		}, classifier)
		if err != nil {
			return err
		}
	}
	return nil
}

// foldFeatures returns one fold's features, given the fold's training
// indexes into Experiment.Bundles: the training features its knowledge
// base is built from (nil: code frequencies only) and the test features,
// both indexed like Experiment.Bundles.
type foldFeatures func(train []int) (trainFeats, testFeats [][]string, err error)

// foldClassifier ranks held-out bundle idx over one fold's knowledge base
// and reports how many candidate nodes it scored (0 for the baselines,
// which score none).
type foldClassifier func(idx int) (list []core.ScoredCode, candidates int)

// crossValidate is the one fold loop: Run, RunAdapted and both baselines
// cross-validate through it. For each stratified fold it asks features
// for the fold's tables, builds the knowledge base from the training
// bundles' features, asks classifier for v's classifier over it and ranks
// every held-out bundle. The injected clock is read before and after each
// fold's classification loop, while the fold's knowledge base and every
// feature set are live.
func (e *Experiment) crossValidate(v Variant, features foldFeatures, classifier variantClassifier) (*Result, error) {
	folds := StratifiedFolds(e.Bundles, e.Folds, e.Seed)
	res := &Result{Variant: v.Name, Accuracy: AccuracyAtK{}}
	vspan := e.Tracer.Start(nil, spanVariant, obs.L("variant", v.Name))
	defer vspan.End(nil)
	guard := e.Flight.Guard(spanVariant + ":" + v.Name)
	defer guard.Stop()
	hits := map[int]int{}
	total := 0
	var classifySeconds float64
	var kbNodes int
	var candidates int64

	for f := 0; f < e.Folds; f++ {
		guard.Beat()
		fspan := e.Tracer.Start(vspan, spanFold, obs.L("fold", strconv.Itoa(f)))
		inTest := make(map[int]bool, len(folds[f]))
		for _, idx := range folds[f] {
			inTest[idx] = true
		}
		train := make([]int, 0, len(e.Bundles)-len(folds[f]))
		for i := range e.Bundles {
			if !inTest[i] {
				train = append(train, i)
			}
		}
		trainFeats, testFeats, err := features(train)
		if err != nil {
			fspan.End(err)
			return nil, err
		}
		mem := kb.NewMemory()
		for _, i := range train {
			var feats []string
			if trainFeats != nil {
				feats = trainFeats[i]
			}
			mem.AddBundle(e.Bundles[i].PartID, e.Bundles[i].ErrorCode, feats)
		}
		kbNodes += mem.NodeCount()
		classify := classifier(v, mem, testFeats)

		foldAcc := AccuracyAtK{}
		foldHits := map[int]int{}
		start := e.now()
		for _, idx := range folds[f] {
			list, n := classify(idx)
			candidates += int64(n)
			r := core.Rank(list, e.Bundles[idx].ErrorCode)
			for _, k := range e.Ks {
				if r > 0 && r <= k {
					foldHits[k]++
				}
			}
		}
		classifySeconds += e.elapsed(start)
		n := len(folds[f])
		total += n
		for _, k := range e.Ks {
			foldAcc[k] = float64(foldHits[k]) / float64(n)
			hits[k] += foldHits[k]
		}
		res.PerFold = append(res.PerFold, foldAcc)
		fspan.End(nil)
	}
	for _, k := range e.Ks {
		res.Accuracy[k] = float64(hits[k]) / float64(total)
	}
	res.SecPerBundle = classifySeconds / float64(total)
	res.TestBundles = total / e.Folds
	res.KBNodes = kbNodes / e.Folds
	res.Comparisons = candidates
	if total > 0 {
		res.CandidateSize = float64(candidates) / float64(total)
	}
	return res, nil
}

// Run cross-validates one variant.
func (e *Experiment) Run(v Variant) (*Result, error) {
	res, err := e.RunAll([]Variant{v})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunAll cross-validates several variants, stopping at the first failure.
// Variants that share a toolkit configuration share one analysis pass.
func (e *Experiment) RunAll(variants []Variant) ([]*Result, error) {
	return e.crossValidateAll(variants, e.rank)
}

// rank is the classifier of RunAll and RunAdapted: v's similarity over the
// fold's knowledge base.
func (e *Experiment) rank(v Variant, mem *kb.Memory, testFeats [][]string) foldClassifier {
	clf := core.New(mem, v.Sim)
	return func(idx int) ([]core.ScoredCode, int) {
		return clf.RecommendCounted(e.Bundles[idx].PartID, testFeats[idx])
	}
}

// RunAdapted cross-validates v over a taxonomy adapted per fold. adapt
// returns a fold's taxonomy given the fold's training indexes into
// Bundles, so that nothing of the held-out bundles reaches it. Each fold
// then analyses every bundle once, through a toolkit with v's
// configuration over that taxonomy, for its training and test features.
func (e *Experiment) RunAdapted(v Variant, adapt func(train []int) (*taxonomy.Taxonomy, error)) (*Result, error) {
	sets := [][]bundle.Source{bundle.TrainingSources(), v.testSources()}
	return e.crossValidate(v, func(train []int) ([][]string, [][]string, error) {
		tax, err := adapt(train)
		if err != nil {
			return nil, nil, fmt.Errorf("eval: adapt taxonomy: %w", err)
		}
		feats, err := e.featureSets(v.toolkit(tax), sets)
		if err != nil {
			return nil, nil, err
		}
		return feats[0], feats[1], nil
	}, e.rank)
}

// RunFrequencyBaseline evaluates the code-frequency baseline (§5.1). It
// only needs frequencies, so the fold knowledge bases carry no features.
func (e *Experiment) RunFrequencyBaseline() *Result {
	// Without analysis nothing can fail.
	res, _ := e.crossValidate(Variant{Name: "code frequency baseline"}, func([]int) ([][]string, [][]string, error) {
		return nil, nil, nil
	}, func(_ Variant, mem *kb.Memory, _ [][]string) foldClassifier {
		bl := baseline.CodeFrequency{Store: mem}
		return func(idx int) ([]core.ScoredCode, int) {
			return bl.Recommend(e.Bundles[idx].PartID), 0
		}
	})
	return res
}

// RunCandidateSetBaseline evaluates the unsorted candidate-set baseline for
// one feature model (§5.1 baseline 2) over the test features of
// testSources (nil or empty: all test-phase sources).
func (e *Experiment) RunCandidateSetBaseline(model kb.FeatureModel, testSources []bundle.Source) (*Result, error) {
	v := Variant{Name: fmt.Sprintf("candidate set baseline (%s)", model), Model: model, TestSources: testSources}
	res, err := e.crossValidateAll([]Variant{v}, func(_ Variant, mem *kb.Memory, testFeats [][]string) foldClassifier {
		bl := baseline.CandidateSet{Store: mem}
		return func(idx int) ([]core.ScoredCode, int) {
			return bl.Recommend(e.Bundles[idx].PartID, testFeats[idx]), 0
		}
	})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}
