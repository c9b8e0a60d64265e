package taxext

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/taxonomy"
)

func miniTaxonomy(t *testing.T) *taxonomy.Taxonomy {
	t.Helper()
	tax := taxonomy.New()
	if err := tax.Add(taxonomy.Concept{ID: 1, Kind: taxonomy.KindComponent, Path: "Radio",
		Synonyms: map[string][]string{"en": {"radio"}}}); err != nil {
		t.Fatal(err)
	}
	return tax
}

func mkBundle(refNo, code, text string) *bundle.Bundle {
	return &bundle.Bundle{
		RefNo: refNo, ArticleCode: "A", PartID: "P1", ErrorCode: code,
		Reports: []bundle.Report{{Source: bundle.SourceSupplier, Text: text}},
	}
}

func ref(i int) string { return "R" + string(rune('0'+i)) }

func TestMineFindsUncoveredCodeSpecificTerms(t *testing.T) {
	tax := miniTaxonomy(t)
	var bundles []*bundle.Bundle
	// "oxidation" is the habitual wording of E1, occurs in 4 E1 bundles.
	for i := 0; i < 4; i++ {
		bundles = append(bundles, mkBundle(ref(i), "E1", "radio unit shows heavy oxidation inside"))
	}
	// Generic word "inspected" spreads across codes.
	bundles = append(bundles,
		mkBundle("g1", "E2", "radio inspected, all fine inside"),
		mkBundle("g2", "E3", "radio inspected again inside"),
		mkBundle("g3", "E4", "radio inspected as well inside"),
	)
	props, err := Mine(tax, bundles)
	if err != nil {
		t.Fatal(err)
	}
	var foundOx, foundInside, foundRadio, foundInspected bool
	for _, p := range props {
		switch p.Term {
		case "oxidation":
			foundOx = true
			if p.ErrorCode != "E1" || p.Support != 4 || p.Confidence != 1.0 {
				t.Fatalf("oxidation proposal = %+v", p)
			}
		case "inside":
			foundInside = true
		case "radio":
			foundRadio = true
		case "inspected":
			foundInspected = true
		}
	}
	if !foundOx {
		t.Fatalf("oxidation not mined: %v", props)
	}
	if foundRadio {
		t.Error("covered taxonomy term proposed")
	}
	if foundInspected {
		t.Error("low-confidence generic term proposed (spread over 3 codes)")
	}
	// "inside" occurs in 7 bundles, 4 of them E1 → confidence 4/7 < 0.6.
	if foundInside {
		t.Error("term below the confidence threshold proposed")
	}
}

func TestMineThresholds(t *testing.T) {
	tax := miniTaxonomy(t)
	bundles := []*bundle.Bundle{
		mkBundle("a", "E1", "rare seepage"),
		mkBundle("b", "E1", "rare seepage"),
	}
	// Support 2 < 3: nothing proposed.
	props, err := Mine(tax, bundles)
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 0 {
		t.Fatalf("proposals below support threshold: %v", props)
	}
	// A third bundle reaches the support threshold.
	props, err = Mine(tax, append(bundles, mkBundle("c", "E1", "rare seepage")))
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 2 { // "rare", "seepage"
		t.Fatalf("proposals = %v", props)
	}
}

func TestMineRejectsUnassigned(t *testing.T) {
	tax := miniTaxonomy(t)
	b := mkBundle("x", "", "text")
	if _, err := Mine(tax, []*bundle.Bundle{b}); err == nil {
		t.Fatal("unassigned bundle accepted")
	}
}

func TestApplyExtendsCopy(t *testing.T) {
	tax := miniTaxonomy(t)
	props := []Proposal{
		{Term: "oxidation", ErrorCode: "E1", Support: 4, Confidence: 1},
		{Term: "seepage", ErrorCode: "E1", Support: 3, Confidence: 0.9},
		{Term: "shear", ErrorCode: "E2", Support: 3, Confidence: 0.8},
	}
	ext, added, err := Apply(tax, props)
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 { // one concept per code
		t.Fatalf("added = %d, want 2", added)
	}
	if ext.Len() != tax.Len()+2 {
		t.Fatalf("extended len = %d", ext.Len())
	}
	if tax.Len() != 1 {
		t.Fatal("original taxonomy mutated")
	}
	// The E1 concept carries both terms as synonyms.
	var e1 *taxonomy.Concept
	for _, c := range ext.Concepts() {
		if strings.HasSuffix(c.Path, "E1") {
			e1 = c
		}
	}
	if e1 == nil || len(e1.Synonyms["und"]) != 2 {
		t.Fatalf("mined concept = %+v", e1)
	}
}

// adaptationConfig is the corpus of the adaptation tests: large enough
// for the miner to find terms per fold.
func adaptationConfig() datagen.Config {
	cfg := datagen.SmallConfig()
	cfg.Bundles = 800
	cfg.Singletons = 60
	cfg.CodesPerPart = []int{40, 30, 20, 14, 10}
	cfg.ArticleCodes = 60
	return cfg
}

// adapted cross-validates bag-of-concepts + Jaccard with the taxonomy
// adapted per fold and returns the result and the adaptation.
func adapted(t *testing.T, e *eval.Experiment) (*eval.Result, *Adaptation) {
	t.Helper()
	a, err := NewAdaptation(e.Taxonomy, e.Bundles)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunAdapted(eval.Variant{Name: "boc adapted", Model: kb.BagOfConcepts, Sim: core.Jaccard{}}, a.Adapt)
	if err != nil {
		t.Fatal(err)
	}
	return res, a
}

// TestAdaptationImprovesBagOfConcepts is the extension experiment: with
// per-fold taxonomy adaptation, bag-of-concepts accuracy must move toward
// bag-of-words — the outcome §5.2.2 predicts for an improved resource.
func TestAdaptationImprovesBagOfConcepts(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation in -short mode")
	}
	corpus, err := datagen.Generate(adaptationConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := eval.New(corpus.Taxonomy, corpus.Bundles)
	plain, err := e.Run(eval.Variant{Name: "boc", Model: kb.BagOfConcepts, Sim: core.Jaccard{}})
	if err != nil {
		t.Fatal(err)
	}
	res, a := adapted(t, e)
	if a.Added() == 0 {
		t.Fatal("adaptation mined nothing")
	}
	if res.Accuracy[1] <= plain.Accuracy[1] {
		t.Errorf("adaptation did not improve acc@1: %.3f vs %.3f", res.Accuracy[1], plain.Accuracy[1])
	}
	t.Logf("bag-of-concepts acc@1: plain %.3f -> adapted %.3f (+%d mined concepts/fold)",
		plain.Accuracy[1], res.Accuracy[1], a.Added())
}

// TestAdaptationMatchesFrozen checks the adapted run through eval's fold
// loop, and the miner's scan-once-and-sum, against the frozen driver that
// mined, trained and classified whole bundles per fold: accuracy, every
// fold's accuracy, every fold's added concepts and the proposals over the
// whole corpus must be identical, on two generated corpora.
func TestAdaptationMatchesFrozen(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation in -short mode")
	}
	small := datagen.SmallConfig()
	small.Seed = 3
	for name, cfg := range map[string]datagen.Config{"adaptation": adaptationConfig(), "small-seed3": small} {
		t.Run(name, func(t *testing.T) {
			corpus, err := datagen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantAcc, wantFold, wantAdded, err := frozenEvaluate(corpus.Taxonomy, corpus.Bundles, core.Jaccard{}, 5, 1, eval.DefaultKs)
			if err != nil {
				t.Fatal(err)
			}
			res, a := adapted(t, eval.New(corpus.Taxonomy, corpus.Bundles))
			if !reflect.DeepEqual(res.Accuracy, wantAcc) {
				t.Errorf("accuracy %v, frozen %v", res.Accuracy, wantAcc)
			}
			if !reflect.DeepEqual(res.PerFold, wantFold) {
				t.Errorf("per-fold accuracy %v, frozen %v", res.PerFold, wantFold)
			}
			if !reflect.DeepEqual(a.added, wantAdded) {
				t.Errorf("concepts added per fold %v, frozen %v", a.added, wantAdded)
			}

			want, err := frozenMine(corpus.Taxonomy, corpus.Bundles)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Mine(corpus.Taxonomy, corpus.Bundles)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("Mine proposed %d terms, frozen %d, or they differ", len(got), len(want))
			}
		})
	}
}
