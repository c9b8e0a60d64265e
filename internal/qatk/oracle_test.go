package qatk

import (
	"slices"
	"testing"

	"repro/internal/bundle"
	"repro/internal/kb"
	"repro/internal/taxonomy"
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

// oracle is a toolkit paired with the frozen analysis chain of its
// configuration (frozen_test.go).
type oracle struct {
	name  string
	tk    *Toolkit
	chain *frozenChain
}

func newOracles(tax *taxonomy.Taxonomy) []oracle {
	var out []oracle
	for _, cfg := range configs {
		tk := New(tax, cfg.opts...)
		out = append(out, oracle{cfg.name, tk, newFrozenChain(tk)})
	}
	return out
}

// sourceSets are the report-source sets the oracle checks: training and
// test sources, and Figs. 12 and 13's single test sources.
var sourceSets = [][]bundle.Source{
	bundle.TrainingSources(), bundle.TestSources(),
	{bundle.SourceMechanic}, {bundle.SourceSupplier},
}

// check requires, for each of sourceSets, the toolkit's Features of b
// and its FeatureSets to equal the frozen chain's features (nil and empty
// alike).
func (o oracle) check(t testing.TB, b *bundle.Bundle) {
	t.Helper()
	sets, err := o.tk.FeatureSets(b, sourceSets...)
	if err != nil {
		t.Fatalf("%s: FeatureSets, bundle %s: %v", o.name, b.RefNo, err)
	}
	for i, sources := range sourceSets {
		want := o.chain.features(b, sources)
		got, err := o.tk.Features(b, sources)
		if err != nil {
			t.Fatalf("%s: bundle %s: %v", o.name, b.RefNo, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: bundle %s, sources %v: Features\n got %v\nwant %v", o.name, b.RefNo, sources, got, want)
		}
		if !slices.Equal(sets[i], want) {
			t.Fatalf("%s: bundle %s, sources %v: FeatureSets\n got %v\nwant %v", o.name, b.RefNo, sources, sets[i], want)
		}
	}
}

// TestFeaturesMatchOracle: on every small-corpus bundle, for each of
// sourceSets, each configuration's Features and FeatureSets equal the
// frozen chain's features.
func TestFeaturesMatchOracle(t *testing.T) {
	c := corpus(t)
	for _, o := range newOracles(c.Taxonomy) {
		for _, b := range c.Bundles {
			o.check(t, b)
		}
	}
}

// FuzzFeatures analyzes a bundle of two arbitrary reports, a mechanic's
// and a supplier's: every configuration must analyze it without error,
// and its Features and FeatureSets must agree with the frozen chain.
// Split across the two reports, no multiword term of the generated
// taxonomy changes the bag-of-concepts features, so the taxonomy gains
// "mud guard", whose words are no terms: a concept match across the
// report boundary would then change them (seed split-mud-guard). Seed
// capitalised-boundary-multiword puts "Mud Guard" at the very end of one
// report and the very start of the next, so a segment bound off by one
// token, or a norm not lowered, shows too.
func FuzzFeatures(f *testing.F) {
	tax := corpus(f).Taxonomy
	if err := tax.Add(taxonomy.Concept{ID: tax.MaxID() + 1, Kind: taxonomy.KindComponent, Path: "Body/Fender",
		Synonyms: map[string][]string{"en": {"mud guard"}}}); err != nil {
		f.Fatal(err)
	}
	oracles := newOracles(tax)
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
