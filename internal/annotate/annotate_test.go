package annotate

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/cas"
	"repro/internal/taxonomy"
	"repro/internal/textproc"
)

func sampleTaxonomy(t *testing.T) *taxonomy.Taxonomy {
	t.Helper()
	tax := taxonomy.New()
	add := func(c taxonomy.Concept) {
		if err := tax.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	add(taxonomy.Concept{ID: 100, Kind: taxonomy.KindComponent, Path: "Body/Fender", Synonyms: map[string][]string{
		"de": {"kotflügel"},
		"en": {"fender", "mud guard", "splashboard"},
	}})
	add(taxonomy.Concept{ID: 200, Kind: taxonomy.KindSymptom, Path: "Noise/Squeak", Synonyms: map[string][]string{
		"de": {"quietschen"},
		"en": {"squeak", "squeaking noise"},
	}})
	add(taxonomy.Concept{ID: 300, Kind: taxonomy.KindSymptom, Path: "Noise", Synonyms: map[string][]string{
		"de": {"geräusch"},
		"en": {"noise"},
	}})
	add(taxonomy.Concept{ID: 400, Kind: taxonomy.KindComponent, Path: "Electric/Fan", Synonyms: map[string][]string{
		"de": {"lüfter"},
		"en": {"fan"},
	}})
	add(taxonomy.Concept{ID: 500, Kind: taxonomy.KindSolution, Path: "Replace", Synonyms: map[string][]string{
		"de": {"austauschen"},
		"en": {"replace"},
	}})
	return tax
}

func annotateText(t *testing.T, text string, a interface {
	Process(*cas.CAS) error
}) *cas.CAS {
	t.Helper()
	c := cas.New(text)
	if err := (textproc.Tokenizer{}).Process(c); err != nil {
		t.Fatal(err)
	}
	if err := a.Process(c); err != nil {
		t.Fatal(err)
	}
	return c
}

// conceptIDs returns the distinct concept IDs of c's concept layer, in
// first-occurrence order.
func conceptIDs(c *cas.CAS) []int {
	var out []int
	for _, m := range c.Concepts() {
		if !slices.Contains(out, m.ID) {
			out = append(out, m.ID)
		}
	}
	return out
}

func TestConceptAnnotatorBasic(t *testing.T) {
	tax := sampleTaxonomy(t)
	a := NewConceptAnnotator(tax)
	c := annotateText(t, "The fender makes a squeak.", a)
	ids := conceptIDs(c)
	if !reflect.DeepEqual(ids, []int{100, 200}) {
		t.Fatalf("concepts = %v", ids)
	}
}

func TestConceptAnnotatorMultiwordAndEnclosed(t *testing.T) {
	tax := sampleTaxonomy(t)
	a := NewConceptAnnotator(tax)
	// "squeaking noise" must match the multiword (concept 200); the
	// enclosed single-word "noise" (concept 300) must NOT be reported.
	c := annotateText(t, "customer reports squeaking noise from the mud guard", a)
	ids := conceptIDs(c)
	if !reflect.DeepEqual(ids, []int{200, 100}) {
		t.Fatalf("concepts = %v, want [200 100]", ids)
	}
	mentions := c.Concepts()
	if len(mentions) != 2 {
		t.Fatalf("mentions = %d", len(mentions))
	}
	for i, want := range []string{"squeaking noise", "mud guard"} {
		if got := c.Text()[mentions[i].Begin:mentions[i].End]; got != want {
			t.Fatalf("covered = %q, want %q", got, want)
		}
	}
}

// TestConceptAnnotatorStopsAtReportBoundary: "mud" ending the mechanic
// report and "guard" opening the supplier report are not the multiword
// "mud guard"; the same two words inside one report are.
func TestConceptAnnotatorStopsAtReportBoundary(t *testing.T) {
	a := NewConceptAnnotator(sampleTaxonomy(t))
	concepts := func(mechanic, supplier string) []int {
		t.Helper()
		c := cas.NewFromSegments([]struct{ Source, Text string }{
			{"mechanic", mechanic}, {"supplier", supplier},
		})
		if err := (textproc.Tokenizer{}).Process(c); err != nil {
			t.Fatal(err)
		}
		if err := a.Process(c); err != nil {
			t.Fatal(err)
		}
		return conceptIDs(c)
	}
	if ids := concepts("customer reports mud", "guard cracked"); len(ids) != 0 {
		t.Fatalf("split across reports: concepts = %v, want none", ids)
	}
	if ids := concepts("customer reports mud guard", "cracked"); !reflect.DeepEqual(ids, []int{100}) {
		t.Fatalf("within one report: concepts = %v, want [100]", ids)
	}
}

func TestConceptAnnotatorSynonymCollapse(t *testing.T) {
	tax := sampleTaxonomy(t)
	a := NewConceptAnnotator(tax)
	// All three wordings map to the same concept ID (paper example).
	for _, text := range []string{"mud guard broken", "splashboard broken", "fender broken"} {
		c := annotateText(t, text, a)
		ids := conceptIDs(c)
		if !reflect.DeepEqual(ids, []int{100}) {
			t.Fatalf("%q concepts = %v", text, ids)
		}
	}
}

func TestConceptAnnotatorMultilingual(t *testing.T) {
	tax := sampleTaxonomy(t)
	a := NewConceptAnnotator(tax)
	c := annotateText(t, "Lüfter quietschen beim Start, fan squeak on start", a)
	ids := conceptIDs(c)
	if !reflect.DeepEqual(ids, []int{400, 200}) {
		t.Fatalf("concepts = %v (German and English should collapse)", ids)
	}
}

func TestConceptAnnotatorCaseInsensitive(t *testing.T) {
	tax := sampleTaxonomy(t)
	a := NewConceptAnnotator(tax)
	c := annotateText(t, "FENDER Fender fender", a)
	if got := len(c.Concepts()); got != 3 {
		t.Fatalf("mentions = %d, want 3", got)
	}
}

func TestConceptAnnotatorKindFilter(t *testing.T) {
	tax := sampleTaxonomy(t)
	// Default: solutions not annotated.
	a := NewConceptAnnotator(tax)
	c := annotateText(t, "replace the fender", a)
	if ids := conceptIDs(c); !reflect.DeepEqual(ids, []int{100}) {
		t.Fatalf("concepts = %v", ids)
	}
	// Explicitly include solutions.
	all := NewConceptAnnotator(tax, WithKinds(taxonomy.Kinds()...))
	c2 := annotateText(t, "replace the fender", all)
	if ids := conceptIDs(c2); !reflect.DeepEqual(ids, []int{500, 100}) {
		t.Fatalf("concepts = %v", ids)
	}
}

func TestConceptAnnotatorKindFeature(t *testing.T) {
	tax := sampleTaxonomy(t)
	a := NewConceptAnnotator(tax)
	c := annotateText(t, "fender squeak", a)
	mentions := c.Concepts()
	if mentions[0].Kind != "component" || mentions[1].Kind != "symptom" {
		t.Fatalf("kinds = %q, %q", mentions[0].Kind, mentions[1].Kind)
	}
}

func TestLegacyAnnotatorLimitations(t *testing.T) {
	tax := sampleTaxonomy(t)
	legacy := NewLegacyAnnotator(tax)

	// Finds the exact lowercase German first synonym.
	c := annotateText(t, "lüfter defekt", legacy)
	if ids := conceptIDs(c); !reflect.DeepEqual(ids, []int{400}) {
		t.Fatalf("concepts = %v", ids)
	}
	// Misses capitalized mentions (case-sensitive).
	c = annotateText(t, "Lüfter defekt", legacy)
	if ids := conceptIDs(c); len(ids) != 0 {
		t.Fatalf("capitalized matched: %v", ids)
	}
	// Misses English entirely.
	c = annotateText(t, "fan squeak fender", legacy)
	if ids := conceptIDs(c); len(ids) != 0 {
		t.Fatalf("english matched: %v", ids)
	}
	// The new annotator finds all of these.
	a := NewConceptAnnotator(tax)
	c = annotateText(t, "Lüfter defekt, fan squeak fender", a)
	if ids := conceptIDs(c); len(ids) != 3 {
		t.Fatalf("new annotator concepts = %v", ids)
	}
}

// TestConceptIDsDeduplicates: the concept layer keeps every mention, so a
// repeated concept is one ID among the distinct IDs but several mentions.
func TestConceptIDsDeduplicates(t *testing.T) {
	tax := sampleTaxonomy(t)
	a := NewConceptAnnotator(tax)
	c := annotateText(t, "fender fender squeak fender", a)
	var mentioned []int
	for _, m := range c.Concepts() {
		mentioned = append(mentioned, m.ID)
	}
	if !reflect.DeepEqual(mentioned, []int{100, 100, 200, 100}) {
		t.Fatalf("mentions = %v", mentioned)
	}
	if ids := conceptIDs(c); !reflect.DeepEqual(ids, []int{100, 200}) {
		t.Fatalf("concepts = %v", ids)
	}
}

func TestAnnotatorEngineNames(t *testing.T) {
	tax := sampleTaxonomy(t)
	if NewConceptAnnotator(tax).Name() == "" || NewLegacyAnnotator(tax).Name() == "" {
		t.Fatal("engines must be named")
	}
}
