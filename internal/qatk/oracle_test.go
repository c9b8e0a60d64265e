package qatk

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/annotate"
	"repro/internal/bundle"
	"repro/internal/kb"
	"repro/internal/pipeline"
	"repro/internal/taxonomy"
	"repro/internal/textproc"
)

// configs are the toolkit configurations the experiments run: Fig. 11's
// two models, the feasibility table's stopword removal, and the
// preprocessing extension's spell normalization and stemming.
var configs = []struct {
	name string
	opts []Option
}{
	{"bag-of-words", []Option{WithModel(kb.BagOfWords)}},
	{"bag-of-words + stopwords", []Option{WithModel(kb.BagOfWords), WithStopwordRemoval()}},
	{"bag-of-concepts", nil},
	{"bag-of-words + spell", []Option{WithModel(kb.BagOfWords), WithSpellNormalization()}},
	{"bag-of-words + spell + stems", []Option{WithModel(kb.BagOfWords), WithSpellNormalization(), WithStemming()}},
	{"bag-of-concepts + spell", []Option{WithSpellNormalization()}},
}

// oracle is a toolkit paired with the analysis chain it replaced: every
// engine built by hand, and the language detector always on.
type oracle struct {
	name  string
	tk    *Toolkit
	chain *pipeline.Pipeline
}

func newOracles(t testing.TB, tax *taxonomy.Taxonomy) []oracle {
	t.Helper()
	var out []oracle
	for _, cfg := range configs {
		tk := New(tax, cfg.opts...)
		engines := []pipeline.Engine{textproc.Tokenizer{}}
		if tk.SpellNorm {
			engines = append(engines, textproc.SpellNormalizer{Vocab: TaxonomyVocabulary(tax)})
		}
		engines = append(engines, textproc.LanguageDetector{})
		if tk.Stemming {
			engines = append(engines, textproc.Stemmer{})
		}
		if tk.Model == kb.BagOfConcepts {
			engines = append(engines, annotate.NewConceptAnnotator(tax))
		}
		chain, err := pipeline.New(engines...)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, oracle{cfg.name, tk, chain})
	}
	return out
}

// sourceSets are the report-source sets the oracle checks: training and
// test sources, and Figs. 12 and 13's single test sources.
var sourceSets = [][]bundle.Source{
	bundle.TrainingSources(), bundle.TestSources(),
	{bundle.SourceMechanic}, {bundle.SourceSupplier},
}

// check requires, for each of sourceSets, the toolkit's features of b to
// equal the oracle chain's, and FeatureSets' union of per-report features
// to equal them too (nil and empty alike).
func (o oracle) check(t testing.TB, b *bundle.Bundle) {
	t.Helper()
	unions, err := o.tk.FeatureSets(b, sourceSets...)
	if err != nil {
		t.Fatalf("%s: FeatureSets, bundle %s: %v", o.name, b.RefNo, err)
	}
	for i, sources := range sourceSets {
		got, err := o.tk.Features(b, sources)
		if err != nil {
			t.Fatalf("%s: bundle %s: %v", o.name, b.RefNo, err)
		}
		c := b.CAS(sources...)
		if err := o.chain.Process(c); err != nil {
			t.Fatalf("%s: oracle, bundle %s: %v", o.name, b.RefNo, err)
		}
		if want := o.tk.extractor.Features(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: bundle %s, sources %v:\n got %v\nwant %v", o.name, b.RefNo, sources, got, want)
		}
		if !slices.Equal(unions[i], got) {
			t.Fatalf("%s: bundle %s, sources %v: FeatureSets\n got %v\nwant %v", o.name, b.RefNo, sources, unions[i], got)
		}
	}
}

// TestFeaturesMatchOracle: on every small-corpus bundle, for each of
// sourceSets, each configuration's features equal the oracle's and the
// union of its per-report features.
func TestFeaturesMatchOracle(t *testing.T) {
	c := corpus(t)
	for _, o := range newOracles(t, c.Taxonomy) {
		for _, b := range c.Bundles {
			o.check(t, b)
		}
	}
}

// FuzzFeatures analyzes a bundle of two arbitrary reports, a mechanic's
// and a supplier's: every configuration must analyze it without error,
// agree with the oracle and equal the union of its per-report features.
// Split across the two reports, no multiword term of the generated
// taxonomy changes the bag-of-concepts features, so the taxonomy gains
// "mud guard", whose words are no terms: a concept match across the
// report boundary would then change them (seed split-mud-guard).
func FuzzFeatures(f *testing.F) {
	tax := corpus(f).Taxonomy
	if err := tax.Add(taxonomy.Concept{ID: tax.MaxID() + 1, Kind: taxonomy.KindComponent, Path: "Body/Fender",
		Synonyms: map[string][]string{"en": {"mud guard"}}}); err != nil {
		f.Fatal(err)
	}
	oracles := newOracles(f, tax)
	f.Fuzz(func(t *testing.T, mechanic, supplier string) {
		b := &bundle.Bundle{RefNo: "FUZZ", PartID: "P", ErrorCode: "E", Reports: []bundle.Report{
			{Source: bundle.SourceMechanic, Text: mechanic},
			{Source: bundle.SourceSupplier, Text: supplier},
		}}
		for _, o := range oracles {
			o.check(t, b)
		}
	})
}
