package qatk

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/kb"
	"repro/internal/reldb"
)

func corpus(t testing.TB) *datagen.Corpus {
	t.Helper()
	c, err := datagen.Generate(datagen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPipelineComposition: the bag-of-words model skips concept
// annotation, and the language detector runs only for the stemmer.
func TestPipelineComposition(t *testing.T) {
	c := corpus(t)
	for _, tc := range []struct {
		opts []Option
		want []string
	}{
		{nil, []string{"tokenizer", "concept-annotator"}},
		{[]Option{WithModel(kb.BagOfWords)}, []string{"tokenizer"}},
		{[]Option{WithModel(kb.BagOfWords), WithSpellNormalization(), WithStemming()},
			[]string{"tokenizer", "spell-normalizer", "language-detector", "stemmer"}},
	} {
		if got := New(c.Taxonomy, tc.opts...).pipeline.Engines(); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("pipeline = %v, want %v", got, tc.want)
		}
	}
}

func TestTrainAndRecommend(t *testing.T) {
	c := corpus(t)
	tk := New(c.Taxonomy, WithModel(kb.BagOfWords))
	filtered := bundle.FilterMultiOccurrence(c.Bundles)
	train := filtered[:len(filtered)-50]
	test := filtered[len(filtered)-50:]

	mem, err := tk.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if mem.NodeCount() == 0 || mem.BundleCount() != len(train) {
		t.Fatalf("kb: %d nodes, %d bundles", mem.NodeCount(), mem.BundleCount())
	}
	hits := 0
	for _, b := range test {
		list, err := tk.Recommend(mem, b)
		if err != nil {
			t.Fatal(err)
		}
		if r := core.Rank(list, b.ErrorCode); r > 0 && r <= 10 {
			hits++
		}
	}
	if hits < 30 { // well above chance on 50 held-out bundles
		t.Fatalf("top-10 hits = %d of %d", hits, len(test))
	}
}

func TestTrainRejectsUnassigned(t *testing.T) {
	c := corpus(t)
	tk := New(c.Taxonomy)
	bad := []*bundle.Bundle{{RefNo: "X", PartID: "P", Reports: []bundle.Report{
		{Source: bundle.SourceMechanic, Text: "whatever"},
	}}}
	if _, err := tk.Train(bad); err == nil {
		t.Fatal("training on unassigned bundle accepted")
	}
}

func TestClassifyAndPersist(t *testing.T) {
	c := corpus(t)
	tk := New(c.Taxonomy)
	filtered := bundle.FilterMultiOccurrence(c.Bundles)
	mem, err := tk.Train(filtered[:200])
	if err != nil {
		t.Fatal(err)
	}
	db, _ := reldb.Open("")
	if err := core.CreateResultsTable(db); err != nil {
		t.Fatal(err)
	}
	// Two pending bundles, one already assigned.
	pending1 := *filtered[200]
	pending1.ErrorCode = ""
	pending2 := *filtered[201]
	pending2.ErrorCode = ""
	assigned := *filtered[202]
	n, err := tk.ClassifyAndPersist(db, mem, []*bundle.Bundle{&pending1, &pending2, &assigned})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("classified %d, want 2", n)
	}
	list, err := core.LoadRecommendations(db, pending1.RefNo, 0)
	if err != nil || len(list) == 0 {
		t.Fatalf("recommendations: %v, %v", list, err)
	}
}

func TestPersistKBRoundTrip(t *testing.T) {
	c := corpus(t)
	tk := New(c.Taxonomy)
	mem, err := tk.Train(bundle.FilterMultiOccurrence(c.Bundles)[:150])
	if err != nil {
		t.Fatal(err)
	}
	db, _ := reldb.Open("")
	if err := tk.PersistKB(db, mem); err != nil {
		t.Fatal(err)
	}
	store, err := kb.OpenDB(db)
	if err != nil {
		t.Fatal(err)
	}
	if store.NodeCount() != mem.NodeCount() {
		t.Fatalf("persisted %d nodes, want %d", store.NodeCount(), mem.NodeCount())
	}
	// The relational store drives the same classifier.
	b := bundle.FilterMultiOccurrence(c.Bundles)[0]
	viaMem, err := tk.Recommend(mem, b)
	if err != nil {
		t.Fatal(err)
	}
	viaDB, err := tk.Recommend(store, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaMem) != len(viaDB) {
		t.Fatalf("recommendation lengths differ: %d vs %d", len(viaMem), len(viaDB))
	}
	for i := range viaMem {
		if viaMem[i].Code != viaDB[i].Code {
			t.Fatalf("rank %d differs: %s vs %s", i, viaMem[i].Code, viaDB[i].Code)
		}
	}
}

func TestStopwordOption(t *testing.T) {
	c := corpus(t)
	plain := New(c.Taxonomy, WithModel(kb.BagOfWords))
	nostop := New(c.Taxonomy, WithModel(kb.BagOfWords), WithStopwordRemoval())
	b := c.Bundles[0]
	f1, err := plain.Features(b, bundle.TestSources())
	if err != nil {
		t.Fatal(err)
	}
	f2, err := nostop.Features(b, bundle.TestSources())
	if err != nil {
		t.Fatal(err)
	}
	if len(f2) >= len(f1) {
		t.Fatalf("stopword removal did not shrink features: %d vs %d", len(f2), len(f1))
	}
}

func TestTaxonomyVocabulary(t *testing.T) {
	c := corpus(t)
	v := TaxonomyVocabulary(c.Taxonomy)
	// Contains taxonomy tokens and stopwords.
	first := c.Taxonomy.Concepts()[0]
	tok := ""
	for _, lang := range first.Languages() {
		for _, syn := range first.Synonyms[lang] {
			for _, w := range strings.Fields(strings.ToLower(syn)) {
				tok = w
			}
		}
	}
	if tok != "" && !v[tok] {
		t.Fatalf("vocabulary missing taxonomy token %q", tok)
	}
	if !v["the"] || !v["der"] {
		t.Fatal("vocabulary missing stopwords")
	}
}

// TestFeatureSetsAllocs pins the analysis path's allocations: a warm
// bag-of-concepts FeatureSets call over the first small-corpus bundle's
// training and test sets made 690 allocations when every token and
// mention was a heap annotation with its own feature map, 62 with typed
// layers in one reused CAS that regrew them, and 51 with the layers sized
// once for the call's longest report. What remains is the CAS and its two
// layers, the lowered norms of capitalised tokens, the per-report feature
// strings and the two sets returned. The bound leaves 3 allocations of
// headroom, fewer than the layers' regrowth would add back.
func TestFeatureSetsAllocs(t *testing.T) {
	c := corpus(t)
	tk := New(c.Taxonomy)
	b := c.Bundles[0]
	const bound = 54
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := tk.FeatureSets(b, bundle.TrainingSources(), bundle.TestSources()); err != nil {
			t.Fatal(err)
		}
	}); allocs > bound {
		t.Fatalf("warm FeatureSets call: %.0f allocations, want at most %d", allocs, bound)
	}
}
