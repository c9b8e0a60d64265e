// Package qatk assembles the Quality Analytics Toolkit: the UIMA-style
// analytics pipeline of Fig. 8 wired end to end — data bundle preparation,
// tokenization, language recognition, concept annotation, knowledge-base
// extraction and persistence, candidate selection, classification, and
// result persistence. It is the programmatic API that the command-line
// tools, the QUEST server and the examples build on.
package qatk

import (
	"context"
	"fmt"

	"repro/internal/annotate"
	"repro/internal/bundle"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/pipeline"
	"repro/internal/reldb"
	"repro/internal/taxonomy"
	"repro/internal/textproc"
)

// Toolkit is a configured QATK instance. New reads the configuration
// fields once, to build the pipeline; set them through Options.
type Toolkit struct {
	Taxonomy  *taxonomy.Taxonomy
	Model     kb.FeatureModel
	Sim       core.Similarity
	Stopwords bool // bag-of-words stopword removal (§5.2.2)
	SpellNorm bool // spelling normalization against the taxonomy vocabulary
	Stemming  bool // language-dependent stemming of bag-of-words features

	pipeline  *pipeline.Pipeline
	extractor *kb.Extractor
}

// Option configures a Toolkit.
type Option func(*Toolkit)

// WithModel selects the feature model (default: bag-of-concepts, the
// domain-specific industrial choice).
func WithModel(m kb.FeatureModel) Option { return func(t *Toolkit) { t.Model = m } }

// WithSimilarity selects the similarity measure (default: Jaccard).
func WithSimilarity(s core.Similarity) Option { return func(t *Toolkit) { t.Sim = s } }

// WithStopwordRemoval enables the bag-of-words stopword optimization.
func WithStopwordRemoval() Option { return func(t *Toolkit) { t.Stopwords = true } }

// WithSpellNormalization adds the SpellNormalizer engine to the pipeline,
// with a vocabulary built from the taxonomy's surface forms: typo'd
// concept mentions ("electiral") are repaired before annotation and
// feature extraction (§6 future work: more linguistic preprocessing).
func WithSpellNormalization() Option { return func(t *Toolkit) { t.SpellNorm = true } }

// WithStemming adds the language detector + Stemmer engines and makes the
// bag-of-words extractor use stems, conflating inflectional variants.
func WithStemming() Option { return func(t *Toolkit) { t.Stemming = true } }

// New builds a Toolkit over a taxonomy, with its analysis pipeline:
// tokenizer, [spell-normalizer], [language-detector + stemmer],
// [concept-annotator]. The detector runs only for the stemmer, the one
// engine that reads its output; the multilingual trie annotates without
// knowing the language. The domain-ignorant model "eliminates the concept
// annotation step" (§4.4).
func New(tax *taxonomy.Taxonomy, opts ...Option) *Toolkit {
	t := &Toolkit{
		Taxonomy: tax,
		Model:    kb.BagOfConcepts,
		Sim:      core.Jaccard{},
	}
	for _, o := range opts {
		o(t)
	}
	t.extractor = &kb.Extractor{Model: t.Model, UseCorrections: t.SpellNorm, UseStems: t.Stemming}
	if t.Stopwords && t.Model == kb.BagOfWords {
		t.extractor.Stopwords = textproc.NewStopwordSet()
	}
	engines := []pipeline.Engine{textproc.Tokenizer{}}
	if t.SpellNorm {
		engines = append(engines, textproc.SpellNormalizer{Vocab: TaxonomyVocabulary(tax)})
	}
	if t.Stemming {
		engines = append(engines, textproc.LanguageDetector{}, textproc.Stemmer{})
	}
	if t.Model == kb.BagOfConcepts {
		engines = append(engines, annotate.NewConceptAnnotator(tax))
	}
	// pipeline.New only rejects empty, nil, unnamed or duplicate engines,
	// none of which this fixed list can hold.
	t.pipeline, _ = pipeline.New(engines...)
	return t
}

// TaxonomyVocabulary collects all surface-form tokens of a taxonomy (plus
// the stopword lists) as the trusted vocabulary for spelling correction.
func TaxonomyVocabulary(tax *taxonomy.Taxonomy) textproc.Vocabulary {
	v := textproc.Vocabulary{}
	for _, c := range tax.Concepts() {
		for _, lang := range c.Languages() {
			for _, syn := range c.Synonyms[lang] {
				for _, tok := range textproc.Tokens(syn) {
					v[tok] = true
				}
			}
		}
	}
	for w := range textproc.NewStopwordSet() {
		v[w] = true
	}
	return v
}

// Analyze runs the pipeline over c and returns c's feature set. It is
// the one analysis path: training, classification, cross-validation and
// the cross-source comparison all extract their features through it.
func (t *Toolkit) Analyze(c *cas.CAS) ([]string, error) {
	if err := t.pipeline.Process(c); err != nil {
		return nil, err
	}
	return t.extractor.Features(c), nil
}

// Features extracts the feature set of one bundle's report sources.
func (t *Toolkit) Features(b *bundle.Bundle, sources []bundle.Source) ([]string, error) {
	return t.Analyze(b.CAS(sources...))
}

// FeatureSets extracts the feature sets of several source sets of one
// bundle, analysing each distinct report the sets name once, as a
// one-report document. A set's features are the sorted, duplicate-free
// union of its reports' features, allocated at exact length because a
// cross-validation holds one per bundle; a set naming no present report
// has none. The union equals Features of the same sources because no
// engine looks across a report boundary: tokens cannot span the "\n"
// that joins reports, the detector and stemmer work per segment, spelling
// correction and extraction per token, and concept matches end at the
// segment boundary.
//
// One CAS serves every report of the call: each report resets it, which
// keeps its layers' capacity and shares the report's text. Its layers are
// sized once, before the first report, for the longest report the call
// analyses. Nothing of it outlives the call.
func (t *Toolkit) FeatureSets(b *bundle.Bundle, sets ...[]bundle.Source) ([][]string, error) {
	var buf [8]report // a bundle has at most one report per source
	reports := buf[:0]
	longest := 0
	for _, set := range sets {
		for _, s := range set {
			longest = max(longest, len(b.ReportText(s)))
		}
	}
	c := new(cas.CAS)
	concepts := 0
	if t.Model == kb.BagOfConcepts {
		concepts = longest/bytesPerConcept + 1
	}
	c.Grow(longest/bytesPerToken+1, concepts)
	for _, set := range sets {
		for _, s := range set {
			text := b.ReportText(s)
			if _, done := featuresOf(reports, s); done || text == "" {
				continue
			}
			c.Reset(string(s), text)
			f, err := t.Analyze(c)
			if err != nil {
				return nil, fmt.Errorf("qatk: %s report: %w", s, err)
			}
			reports = append(reports, report{s, f})
		}
	}
	out := make([][]string, len(sets))
	var partsBuf [8][]string
	for i, set := range sets {
		parts := partsBuf[:0]
		for _, s := range set {
			if f, ok := featuresOf(reports, s); ok {
				parts = append(parts, f)
			}
		}
		out[i] = make([]string, mergeSorted(parts, nil))
		mergeSorted(parts, out[i])
	}
	return out, nil
}

// bytesPerToken and bytesPerConcept size FeatureSets' layers from its
// longest report. Over the 36,607 training-phase reports of the generated
// paper-scale corpus (seed 1), a report runs 8.1 bytes per token and 31
// per concept mention, and no report holds more tokens than one per 6.3
// bytes of its bundle's longest report, or more mentions than one per
// 10.6. A report that holds more grows the layer by appending.
const (
	bytesPerToken   = 6
	bytesPerConcept = 10
)

// report is the features of one analysed report.
type report struct {
	source   bundle.Source
	features []string
}

// featuresOf returns the features of the report from source s, if one
// was analysed.
func featuresOf(reports []report, s bundle.Source) ([]string, bool) {
	for _, r := range reports {
		if r.source == s {
			return r.features, true
		}
	}
	return nil, false
}

// mergeSorted walks the union of sorted, duplicate-free sets in order,
// storing it into out unless out is nil, and returns its length.
func mergeSorted(sets [][]string, out []string) int {
	var buf [8]int // a cursor per set; more sets spill to the heap
	next := buf[:0]
	for range sets {
		next = append(next, 0)
	}
	n := 0
	for {
		least, found := "", false
		for i, s := range sets {
			if next[i] < len(s) && (!found || s[next[i]] < least) {
				least, found = s[next[i]], true
			}
		}
		if !found {
			return n
		}
		for i, s := range sets {
			if next[i] < len(s) && s[next[i]] == least {
				next[i]++
			}
		}
		if out != nil {
			out[n] = least
		}
		n++
	}
}

// Train builds the in-memory knowledge base from training bundles (the
// training phase of §4.4: all report sources including the final OEM
// report and the error-code description are available). The first failing
// bundle aborts training; use TrainRun for fault-isolated training over
// messy collections.
func (t *Toolkit) Train(bundles []*bundle.Bundle) (*kb.Memory, error) {
	mem, _, err := t.TrainRun(context.Background(), bundles, pipeline.RunConfig{})
	if err != nil {
		return nil, err
	}
	return mem, nil
}

// TrainRun is Train with collection-level fault isolation: bundles that
// fail an engine (or arrive without an error code) are routed to the run
// config's dead-letter consumer instead of aborting training, and the
// run's statistics are returned alongside the knowledge base. ctx cancels
// the run at a bundle boundary.
func (t *Toolkit) TrainRun(ctx context.Context, bundles []*bundle.Bundle, cfg pipeline.RunConfig) (*kb.Memory, pipeline.Stats, error) {
	mem := kb.NewMemory()
	reader := bundle.NewReader(bundles, bundle.TrainingSources())
	consumer := pipeline.ConsumerFunc(func(c *cas.CAS) error {
		code := c.Metadata(bundle.MetaErrorCode)
		if code == "" {
			return fmt.Errorf("qatk: training bundle %s without error code", c.Metadata(bundle.MetaRefNo))
		}
		mem.AddBundle(c.Metadata(bundle.MetaPartID), code, t.extractor.Features(c))
		return nil
	})
	stats, err := t.pipeline.RunWithConfig(ctx, reader, consumer, cfg)
	if err != nil {
		return nil, stats, err
	}
	return mem, stats, nil
}

// Classifier builds the ranked-list classifier over a knowledge base.
func (t *Toolkit) Classifier(store kb.Store) *core.Classifier {
	return core.New(store, t.Sim)
}

// Recommend classifies one bundle against a knowledge base using the
// test-phase report sources and returns the ranked error-code suggestions.
func (t *Toolkit) Recommend(store kb.Store, b *bundle.Bundle) ([]core.ScoredCode, error) {
	feats, err := t.Features(b, bundle.TestSources())
	if err != nil {
		return nil, err
	}
	return t.Classifier(store).Recommend(b.PartID, feats), nil
}

// ClassifyAndPersist classifies every bundle without an assigned error code
// and stores the scored suggestions in the database for the QUEST web app
// (application phase, §4.4 step 3c). It returns how many bundles were
// classified.
func (t *Toolkit) ClassifyAndPersist(db *reldb.DB, store kb.Store, bundles []*bundle.Bundle) (int, error) {
	n := 0
	for _, b := range bundles {
		if b.ErrorCode != "" {
			continue
		}
		list, err := t.Recommend(store, b)
		if err != nil {
			return n, fmt.Errorf("qatk: classify %s: %w", b.RefNo, err)
		}
		if err := core.SaveRecommendations(db, b.RefNo, list); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// PersistKB writes a trained knowledge base into the database (training
// phase step 3b, Knowledge Base Persistence).
func (t *Toolkit) PersistKB(db *reldb.DB, mem *kb.Memory) error {
	if err := kb.CreateTables(db); err != nil {
		return err
	}
	return kb.Persist(db, mem)
}
