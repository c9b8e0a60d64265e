package textproc

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cas"
)

func TestStemEnglish(t *testing.T) {
	cases := map[string]string{
		"crackles":  "crackle",
		"cracking":  "crack",
		"stopped":   "stop",
		"bodies":    "body",
		"quickly":   "quick",
		"vibration": "vibrat",
		"fan":       "fan",
		"glass":     "glass", // -ss guarded
		"is":        "is",    // too short
	}
	for in, want := range cases {
		if got := StemEnglish(in); got != want {
			t.Errorf("StemEnglish(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemGerman(t *testing.T) {
	cases := map[string]string{
		"quietschen":      "quietsch",
		"quietscht":       "quietsch",
		"lüftern":         "lüft",  // -ern
		"prüfungen":       "prüf",  // -ungen
		"dichtungen":      "dicht", // -ungen
		"bremse":          "brems", // -e
		"kolben":          "kolb",  // -en
		"rad":             "rad",   // too short
		"auffälligkeiten": "auffällig",
	}
	for in, want := range cases {
		if got := StemGerman(in); got != want {
			t.Errorf("StemGerman(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: stems are never longer than the input and never empty.
func TestStemProperties(t *testing.T) {
	f := func(w string) bool {
		for _, lang := range []string{LangEnglish, LangGerman, LangUnknown} {
			s := Stem(w, lang)
			if len(s) > len(w) {
				return false
			}
			if w != "" && s == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStemmerEngine(t *testing.T) {
	c := cas.NewFromSegments([]struct{ Source, Text string }{
		{"mechanic", "the radio crackles and is not working"},
		{"supplier", "der lüfter quietscht und ist nicht dicht"},
	})
	for _, e := range []interface{ Process(*cas.CAS) error }{
		Tokenizer{}, LanguageDetector{}, Stemmer{},
	} {
		if err := e.Process(c); err != nil {
			t.Fatal(err)
		}
	}
	stems := map[string]string{}
	for _, tok := range c.Tokens() {
		stems[tok.Norm] = tok.Stem
	}
	if stems["crackles"] != "crackle" {
		t.Errorf("crackles stemmed to %q", stems["crackles"])
	}
	if stems["quietscht"] != "quietsch" {
		t.Errorf("quietscht stemmed to %q", stems["quietscht"])
	}
}

func TestVocabularyCorrect(t *testing.T) {
	v := NewVocabulary([]string{"that", "radio", "electrical", "contact"})
	cases := map[string]string{
		"taht":       "that",    // transposition
		"radoi":      "radio",   // transposition
		"contactt":   "contact", // duplication
		"electrical": "",        // already known
		"xyzzy":      "",        // nothing close
		"ra":         "",        // too short
	}
	for in, want := range cases {
		if got := v.Correct(in); got != want {
			t.Errorf("Correct(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestVocabularyCorrectAmbiguous(t *testing.T) {
	v := NewVocabulary([]string{"cart", "card"})
	// "cartd" deletes to both "cart" and "card" → ambiguous → no fix.
	if got := v.Correct("cartd"); got != "" {
		t.Errorf("ambiguous correction = %q", got)
	}
}

func TestSpellNormalizerEngine(t *testing.T) {
	v := NewVocabulary([]string{"that", "crackling"})
	c := cas.New("says taht cracklingg sound")
	if err := (Tokenizer{}).Process(c); err != nil {
		t.Fatal(err)
	}
	if err := (SpellNormalizer{Vocab: v}).Process(c); err != nil {
		t.Fatal(err)
	}
	var fixed []string
	for _, tok := range c.Tokens() {
		if tok.Corrected != "" {
			fixed = append(fixed, tok.Corrected)
		}
	}
	want := []string{"that", "crackling"}
	if !reflect.DeepEqual(fixed, want) {
		t.Fatalf("corrections = %v, want %v", fixed, want)
	}
}

func TestEnginesAreNamed(t *testing.T) {
	for _, e := range []interface{ Name() string }{
		Stemmer{}, SpellNormalizer{},
	} {
		if e.Name() == "" {
			t.Error("engine without name")
		}
	}
}
