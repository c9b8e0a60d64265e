package compare

import (
	"strings"
	"testing"

	"repro/internal/bundle"
	"repro/internal/datagen"
	"repro/internal/kb"
	"repro/internal/nhtsa"
	"repro/internal/qatk"
)

func corpusAndKB(t testing.TB) (*datagen.Corpus, *kb.Memory) {
	t.Helper()
	c, err := datagen.Generate(datagen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	mem, err := qatk.New(c.Taxonomy).Train(bundle.FilterMultiOccurrence(c.Bundles))
	if err != nil {
		t.Fatal(err)
	}
	return c, mem
}

func TestDistributionBasics(t *testing.T) {
	d := FromCounts("src", map[string]int{"A": 6, "B": 3, "C": 1})
	if d.Total != 10 || len(d.Shares) != 3 {
		t.Fatalf("distribution = %+v", d)
	}
	if d.Shares[0].Code != "A" || d.Shares[0].Fraction != 0.6 {
		t.Fatalf("head = %+v", d.Shares[0])
	}
	top := d.Top(2)
	if len(top) != 3 || top[2].Code != "other" || top[2].Count != 1 {
		t.Fatalf("top = %v", top)
	}
	// Top with n >= len returns everything without "other".
	if got := d.Top(10); len(got) != 3 {
		t.Fatalf("top(10) = %v", got)
	}
}

func TestDistributionTieBreak(t *testing.T) {
	d := FromCounts("src", map[string]int{"B": 2, "A": 2})
	if d.Shares[0].Code != "A" {
		t.Fatalf("tie-break = %v", d.Shares)
	}
}

func TestInternalDistribution(t *testing.T) {
	c, _ := corpusAndKB(t)
	filtered := bundle.FilterMultiOccurrence(c.Bundles)
	d := InternalDistribution(filtered)
	if d.Total != len(filtered) {
		t.Fatalf("total = %d, want %d", d.Total, len(filtered))
	}
	if d.Shares[0].Count < d.Shares[len(d.Shares)-1].Count {
		t.Fatal("shares not sorted")
	}
}

func TestClassifyText(t *testing.T) {
	c, mem := corpusAndKB(t)
	clf := NewClassifier(mem, qatk.New(c.Taxonomy))
	// Build a query from a known code's symptoms.
	spec := c.SortedCodes()[0]
	var words []string
	for _, s := range spec.Symptoms {
		if concept, ok := c.Taxonomy.Get(s); ok {
			words = append(words, concept.Synonyms["en"]...)
		}
	}
	words = append(words, "THE CONTACT STATED THAT THE FAILURE OCCURRED")
	code, err := clf.ClassifyText(spec.PartID, strings.ToUpper(strings.Join(words, " ")))
	if err != nil {
		t.Fatal(err)
	}
	if code == "" {
		t.Fatal("no code assigned to a symptom-bearing text")
	}
	// Empty text: no assignment, no error.
	code, err = clf.ClassifyText("NOPART", "")
	if err != nil {
		t.Fatal(err)
	}
	_ = code // may legitimately be "" or a fallback result
}

func TestComplaintDistribution(t *testing.T) {
	c, mem := corpusAndKB(t)
	clf := NewClassifier(mem, qatk.New(c.Taxonomy))
	complaints := nhtsa.Generate(nhtsa.GenerateConfig{Seed: 9, Complaints: 120, ZipfS: 1.1}, c)
	d, err := clf.ComplaintDistribution(complaints)
	if err != nil {
		t.Fatal(err)
	}
	if d.Total != 120 {
		t.Fatalf("total = %d", d.Total)
	}
	// Most complaints must receive a real code (concept mentions exist).
	unassigned := 0
	for _, s := range d.Shares {
		if s.Code == "unassigned" {
			unassigned = s.Count
		}
	}
	if unassigned > 30 {
		t.Fatalf("unassigned = %d of 120", unassigned)
	}
}

func TestPrintSideBySideAndHeadOverlap(t *testing.T) {
	a := FromCounts("internal", map[string]int{"A": 5, "B": 3, "C": 2})
	b := FromCounts("public", map[string]int{"A": 4, "D": 4, "B": 1})
	var sb strings.Builder
	PrintSideBySide(&sb, a, b, 2)
	out := sb.String()
	for _, want := range []string{"internal", "public", "other"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if got := HeadOverlap(a, b, 2); got != 1 { // only "A" shared in top-2
		t.Fatalf("overlap = %d, want 1", got)
	}
}

// TestCrossSourceBagOfConceptsBeatsBagOfWords quantifies the §5.4 claim:
// on a foreign text type (consumer complaints) classified through the
// internal knowledge base, the language-independent bag-of-concepts model
// must beat bag-of-words, whose vocabulary does not transfer.
func TestCrossSourceBagOfConceptsBeatsBagOfWords(t *testing.T) {
	c, _ := corpusAndKB(t)
	filtered := bundle.FilterMultiOccurrence(c.Bundles)
	build := func(model kb.FeatureModel) *Classifier {
		tk := qatk.New(c.Taxonomy, qatk.WithModel(model))
		mem, err := tk.Train(filtered)
		if err != nil {
			t.Fatal(err)
		}
		return NewClassifier(mem, tk)
	}

	complaints, labels := nhtsa.GenerateLabeled(
		nhtsa.GenerateConfig{Seed: 17, Complaints: 250, ZipfS: 1.1}, c)

	bocClf := build(kb.BagOfConcepts)
	bocAcc, err := CrossSourceAccuracy(bocClf, complaints, labels)
	if err != nil {
		t.Fatal(err)
	}
	bowClf := build(kb.BagOfWords)
	bowAcc, err := CrossSourceAccuracy(bowClf, complaints, labels)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cross-source top-1 accuracy: bag-of-concepts %.3f, bag-of-words %.3f", bocAcc, bowAcc)
	if bocAcc <= bowAcc {
		t.Errorf("bag-of-concepts (%.3f) should beat bag-of-words (%.3f) across sources", bocAcc, bowAcc)
	}
	if bocAcc < 0.1 {
		t.Errorf("bag-of-concepts cross-source accuracy collapsed: %.3f", bocAcc)
	}
}
