package textproc

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"repro/internal/cas"
)

func TestTokensBasic(t *testing.T) {
	got := Tokens("Kleint says taht radio turns on and off, by itself!")
	want := []string{"kleint", "says", "taht", "radio", "turns", "on", "and", "off", "by", "itself"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tokens = %v", got)
	}
}

func TestTokensHyphenAndApostrophe(t *testing.T) {
	got := Tokens("o-ring doesn't fit - at all")
	want := []string{"o-ring", "doesn't", "fit", "at", "all"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tokens = %v", got)
	}
}

func TestTokensUmlauts(t *testing.T) {
	got := Tokens("Lüfter funktioniert nicht, durchgeschmort.")
	want := []string{"lüfter", "funktioniert", "nicht", "durchgeschmort"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tokens = %v", got)
	}
}

func TestTokensEmptyAndPunctOnly(t *testing.T) {
	if got := Tokens(""); len(got) != 0 {
		t.Fatalf("tokens of empty = %v", got)
	}
	if got := Tokens("... --- !!!"); len(got) != 0 {
		t.Fatalf("tokens of punctuation = %v", got)
	}
}

func TestTokensNumbers(t *testing.T) {
	got := Tokens("id test470, error B2 at 12.5V")
	want := []string{"id", "test470", "error", "b2", "at", "12", "5v"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tokens = %v", got)
	}
}

// TestASCIIWordTable: the tokenizer's byte table agrees with isWordRune
// on each of the 128 ASCII bytes, and wordAt classifies a one-byte text
// through it.
func TestASCIIWordTable(t *testing.T) {
	for b := 0; b < utf8.RuneSelf; b++ {
		want := isWordRune(rune(b))
		if asciiWord[b] != want {
			t.Errorf("asciiWord[%#02x] = %v, want %v", b, asciiWord[b], want)
		}
		if word, size := wordAt(string(rune(b)), 0); word != want || size != 1 {
			t.Errorf("wordAt(%q) = %v, %d; want %v, 1", rune(b), word, size, want)
		}
	}
}

// tokenLayer runs the tokenizer over text and returns its token layer.
func tokenLayer(t *testing.T, text string) []cas.Token {
	t.Helper()
	c := cas.New(text)
	if err := (Tokenizer{}).Process(c); err != nil {
		t.Fatalf("tokenize %q: %v", text, err)
	}
	return c.Tokens()
}

// Property: every token the tokenizer appends is in range, non-empty,
// non-overlapping and in document order.
func TestTokenSpansProperty(t *testing.T) {
	f := func(text string) bool {
		spans := tokenLayer(t, text)
		prevEnd := 0
		for _, s := range spans {
			if s.Begin < prevEnd || s.End <= s.Begin || s.End > len(text) {
				return false
			}
			prevEnd = s.End
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the concatenation of covered spans contains exactly the word
// runes of the text (no token material is lost by the tokenizer).
func TestTokenSpansCoverWordRunes(t *testing.T) {
	f := func(text string) bool {
		spans := tokenLayer(t, text)
		var b strings.Builder
		for _, s := range spans {
			b.WriteString(text[s.Begin:s.End])
		}
		joined := b.String()
		for _, r := range text {
			if isWordRune(r) && !strings.ContainsRune(joined, r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenizerEngine(t *testing.T) {
	c := cas.New("Unit non-functional. Lüfter defekt.")
	if err := (Tokenizer{}).Process(c); err != nil {
		t.Fatal(err)
	}
	toks := c.Tokens()
	if len(toks) != 4 {
		t.Fatalf("tokens = %d, want 4", len(toks))
	}
	if toks[2].Norm != "lüfter" {
		t.Fatalf("norm = %q", toks[2].Norm)
	}
	if got := c.Text()[toks[1].Begin:toks[1].End]; got != "non-functional" {
		t.Fatalf("covered = %q", got)
	}
}

func TestDetectLanguage(t *testing.T) {
	cases := []struct {
		text string
		want string
	}{
		{"der lüfter funktioniert nicht und ist durchgeschmort", LangGerman},
		{"the radio turns on and off by itself", LangEnglish},
		{"radio kaputt", LangUnknown},
		{"", LangUnknown},
	}
	for _, c := range cases {
		if got := DetectLanguage(Tokens(c.text)); got != c.want {
			t.Errorf("DetectLanguage(%q) = %q, want %q", c.text, got, c.want)
		}
	}
}

func TestLanguageDetectorEngine(t *testing.T) {
	c := cas.NewFromSegments([]struct{ Source, Text string }{
		{"mechanic", "the radio turns on and off by itself, customer says it crackles"},
		{"supplier", "der kontakt ist defekt und durchgeschmort, lüfter funktioniert nicht"},
	})
	if err := (Tokenizer{}).Process(c); err != nil {
		t.Fatal(err)
	}
	if err := (LanguageDetector{}).Process(c); err != nil {
		t.Fatal(err)
	}
	segs := c.Segments()
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	if segs[0].Lang != LangEnglish {
		t.Errorf("mechanic segment lang = %q, want en", segs[0].Lang)
	}
	if segs[1].Lang != LangGerman {
		t.Errorf("supplier segment lang = %q, want de", segs[1].Lang)
	}
}

func TestStopwordSet(t *testing.T) {
	s := NewStopwordSet("custom")
	for _, w := range []string{"the", "der", "it", "sie", "custom"} {
		if !s.Contains(w) {
			t.Errorf("stopword %q missing", w)
		}
	}
	if s.Contains("radio") {
		t.Error("content word flagged as stopword")
	}
	got := s.Filter([]string{"the", "radio", "ist", "defekt"})
	want := []string{"radio", "defekt"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("filtered = %v", got)
	}
}

func TestStopwordFilterPreservesOrder(t *testing.T) {
	s := NewStopwordSet()
	in := []string{"unit", "is", "broken", "the", "fan", "der", "motor"}
	got := s.Filter(in)
	want := []string{"unit", "broken", "fan", "motor"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("filtered = %v", got)
	}
}
