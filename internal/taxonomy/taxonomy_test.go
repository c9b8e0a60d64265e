package taxonomy

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func sample() *Taxonomy {
	t := New()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(t.Add(Concept{ID: 100, Kind: KindComponent, Path: "Body/Fender", Synonyms: map[string][]string{
		"de": {"kotflügel", "schmutzfänger"},
		"en": {"fender", "mud guard", "splashboard"},
	}}))
	must(t.Add(Concept{ID: 200, Kind: KindSymptom, Path: "Noise/HighNoise/Squeak", Synonyms: map[string][]string{
		"de": {"quietschen"},
		"en": {"squeak", "squeaking noise"},
	}}))
	must(t.Add(Concept{ID: 300, Kind: KindSymptom, Path: "Noise/DeepNoise/Hum", Synonyms: map[string][]string{
		"de": {"brummen"},
		"en": {"hum", "humming noise"},
	}}))
	must(t.Add(Concept{ID: 400, Kind: KindSolution, Path: "Replace", Synonyms: map[string][]string{
		"de": {"austauschen"},
		"en": {"replace"},
	}}))
	return t
}

func TestAddValidation(t *testing.T) {
	tax := New()
	bad := []Concept{
		{ID: 0, Kind: KindComponent, Path: "x", Synonyms: map[string][]string{"de": {"a"}}},
		{ID: 1, Kind: "weird", Path: "x", Synonyms: map[string][]string{"de": {"a"}}},
		{ID: 1, Kind: KindComponent, Path: "", Synonyms: map[string][]string{"de": {"a"}}},
		{ID: 1, Kind: KindComponent, Path: "x"},
		{ID: 1, Kind: KindComponent, Path: "x", Synonyms: map[string][]string{"de": {"  "}}},
		{ID: 1, Kind: KindComponent, Path: "x", Synonyms: map[string][]string{"": {"a"}}},
	}
	for i, c := range bad {
		if err := tax.Add(c); err == nil {
			t.Errorf("case %d: invalid concept accepted", i)
		}
	}
	ok := Concept{ID: 1, Kind: KindComponent, Path: "x", Synonyms: map[string][]string{"de": {"a"}}}
	if err := tax.Add(ok); err != nil {
		t.Fatal(err)
	}
	if err := tax.Add(ok); err == nil {
		t.Error("duplicate ID accepted")
	}
}

func TestAddCopiesConcept(t *testing.T) {
	tax := New()
	syns := map[string][]string{"de": {"a"}}
	if err := tax.Add(Concept{ID: 1, Kind: KindComponent, Path: "x", Synonyms: syns}); err != nil {
		t.Fatal(err)
	}
	syns["de"][0] = "mutated"
	c, _ := tax.Get(1)
	if c.Synonyms["de"][0] != "a" {
		t.Fatal("Add did not copy synonyms")
	}
}

func TestEditorOps(t *testing.T) {
	tax := sample()
	if err := tax.AddSynonym(100, "en", "wing"); err != nil {
		t.Fatal(err)
	}
	c, _ := tax.Get(100)
	if len(c.Synonyms["en"]) != 4 {
		t.Fatalf("en synonyms = %v", c.Synonyms["en"])
	}
	// Duplicate (case-insensitive) is a no-op.
	if err := tax.AddSynonym(100, "en", "WING"); err != nil {
		t.Fatal(err)
	}
	if len(c.Synonyms["en"]) != 4 {
		t.Fatal("duplicate synonym added")
	}
	if err := tax.AddSynonym(999, "en", "x"); err == nil {
		t.Error("synonym on missing concept accepted")
	}
	if err := tax.AddSynonym(100, "", "x"); err == nil {
		t.Error("empty language accepted")
	}
	if err := tax.Rename(200, "Noise/Squeal"); err != nil {
		t.Fatal(err)
	}
	c2, _ := tax.Get(200)
	if c2.Path != "Noise/Squeal" {
		t.Fatalf("path = %q", c2.Path)
	}
	if !tax.Remove(400) {
		t.Fatal("remove failed")
	}
	if tax.Remove(400) {
		t.Fatal("double remove succeeded")
	}
	if tax.Len() != 3 {
		t.Fatalf("len = %d", tax.Len())
	}
}

func TestLabelAndLanguages(t *testing.T) {
	tax := sample()
	c, _ := tax.Get(100)
	if c.Label("en") != "fender" || c.Label("de") != "kotflügel" {
		t.Fatalf("labels = %q / %q", c.Label("en"), c.Label("de"))
	}
	if c.Label("fr") != "Fender" {
		t.Fatalf("fallback label = %q", c.Label("fr"))
	}
	langs := c.Languages()
	if len(langs) != 2 || langs[0] != "de" || langs[1] != "en" {
		t.Fatalf("languages = %v", langs)
	}
}

func TestByKindAndStats(t *testing.T) {
	tax := sample()
	if got := len(tax.ByKind(KindSymptom)); got != 2 {
		t.Fatalf("symptoms = %d", got)
	}
	st := tax.ComputeStats()
	if st.Concepts != 4 || st.ByKind[KindSymptom] != 2 || st.ByKind[KindComponent] != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Multiwords != 3 { // "mud guard", "squeaking noise", "humming noise"
		t.Fatalf("multiwords = %d", st.Multiwords)
	}
	if tax.CountConceptsWithLanguage("en") != 4 {
		t.Fatalf("en concepts = %d", tax.CountConceptsWithLanguage("en"))
	}
	if tax.CountSynonyms("en") != 8 {
		t.Fatalf("en synonyms = %d", tax.CountSynonyms("en"))
	}
}

func TestXMLRoundTrip(t *testing.T) {
	tax := sample()
	var buf bytes.Buffer
	if err := tax.Save(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `kind="symptom"`) || !strings.Contains(out, "squeaking noise") {
		t.Fatalf("xml missing content:\n%s", out)
	}
	got, err := Load(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tax.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), tax.Len())
	}
	c, ok := got.Get(200)
	if !ok || c.Path != "Noise/HighNoise/Squeak" || c.Kind != KindSymptom {
		t.Fatalf("concept 200 = %+v", c)
	}
	if len(c.Synonyms["en"]) != 2 || c.Synonyms["en"][1] != "squeaking noise" {
		t.Fatalf("synonyms = %v", c.Synonyms)
	}
}

func TestXMLFileRoundTrip(t *testing.T) {
	tax := sample()
	path := t.TempDir() + "/tax.xml"
	if err := tax.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 {
		t.Fatalf("len = %d", got.Len())
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("not xml")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`<taxonomy version="99"></taxonomy>`)); err == nil {
		t.Error("future version accepted")
	}
	// Invalid concept content inside valid XML.
	bad := `<taxonomy version="1"><concept id="0" kind="component" path="x"><label lang="de">a</label></concept></taxonomy>`
	if _, err := Load(strings.NewReader(bad)); err == nil {
		t.Error("invalid concept accepted")
	}
}

func TestExpandSynonyms(t *testing.T) {
	tax := New()
	if err := tax.Add(Concept{ID: 1, Kind: KindComponent, Path: "Guard", Synonyms: map[string][]string{
		"en": {"guard", "shield"},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := tax.Add(Concept{ID: 2, Kind: KindComponent, Path: "MudGuard", Synonyms: map[string][]string{
		"en": {"mud guard"},
	}}); err != nil {
		t.Fatal(err)
	}
	added := tax.ExpandSynonyms()
	if added == 0 {
		t.Fatal("no synonyms generated")
	}
	c, _ := tax.Get(2)
	found := false
	for _, s := range c.Synonyms["en"] {
		if s == "mud shield" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected generated variant, got %v", c.Synonyms["en"])
	}
}

func TestLanguagesUnion(t *testing.T) {
	tax := sample()
	langs := tax.Languages()
	if len(langs) != 2 || langs[0] != "de" || langs[1] != "en" {
		t.Fatalf("languages = %v", langs)
	}
}

// TestRejectsTextXMLCannotCarry: a term the XML file cannot carry would
// save as U+FFFD and reload as another term, so Add, AddSynonym and
// Rename refuse it, while tabs, line breaks and characters beyond the
// BMP round-trip unchanged.
func TestRejectsTextXMLCannotCarry(t *testing.T) {
	for _, bad := range []string{"a\x01b", "x\uFFFEy", "a\xffb"} {
		for _, c := range []Concept{
			{ID: 1, Kind: KindSymptom, Path: "p", Synonyms: map[string][]string{"en": {bad}}},
			{ID: 1, Kind: KindSymptom, Path: "p", Synonyms: map[string][]string{bad: {"a"}}},
			{ID: 1, Kind: KindSymptom, Path: bad, Synonyms: map[string][]string{"en": {"a"}}},
		} {
			if err := New().Add(c); err == nil {
				t.Errorf("Add accepted %q in %+v", bad, c)
			}
		}
		tax := sample()
		if err := tax.AddSynonym(100, "en", bad); err == nil {
			t.Errorf("AddSynonym accepted synonym %q", bad)
		}
		if err := tax.AddSynonym(100, bad, "wing"); err == nil {
			t.Errorf("AddSynonym accepted language %q", bad)
		}
		if err := tax.Rename(100, bad); err == nil {
			t.Errorf("Rename accepted %q", bad)
		}
		if !reflect.DeepEqual(tax.Concepts(), sample().Concepts()) {
			t.Errorf("a refused edit with %q changed the taxonomy", bad)
		}
	}

	tax := sample()
	if err := tax.AddSynonym(100, "en", "wing\tguard \U0001F527"); err != nil {
		t.Fatal(err)
	}
	if err := tax.Rename(200, "Noise\r\nSqueak"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tax.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Concepts(), tax.Concepts()) {
		t.Errorf("round trip changed the taxonomy:\n got %v\nwant %v", got.Concepts(), tax.Concepts())
	}
}

// FuzzLoadTaxonomy feeds arbitrary bytes to Load — a taxonomy file is
// outside input to taxtool, qatk and questd. No input may panic, and a
// document Load accepts must save and reload to the same concepts.
// Seeds in testdata/fuzz/FuzzLoadTaxonomy: a saved sample taxonomy, an
// empty one, escaped whitespace and a character beyond the BMP, an
// illegal character reference and a duplicate concept ID.
func FuzzLoadTaxonomy(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		tax, err := Load(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tax.Save(&buf); err != nil {
			t.Fatalf("save of a loaded taxonomy: %v", err)
		}
		saved := buf.String()
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("reload: %v\n%s", err, saved)
		}
		if !reflect.DeepEqual(again.Concepts(), tax.Concepts()) {
			t.Fatalf("round trip changed the taxonomy:\n got %v\nwant %v", again.Concepts(), tax.Concepts())
		}
	})
}
