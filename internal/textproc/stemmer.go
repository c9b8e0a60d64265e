package textproc

import (
	"strings"

	"repro/internal/cas"
)

// Light suffix-stripping stemmers for German and English — the "more
// linguistic preprocessing" the paper schedules as future work (§6),
// designed for the pipeline's modularity: the Stemmer engine sets each
// token's Stem, and feature extractors may choose to use it. The
// rules follow the first steps of the classic Porter (English) and
// CISTEM-style (German) algorithms: aggressive enough to conflate
// inflection ("crackles"/"crackling", "quietscht"/"quietschen"), cheap and
// language-conditioned but with safe fallbacks for unknown languages.

// StemEnglish strips common English inflectional suffixes.
func StemEnglish(w string) string {
	if len(w) <= 3 {
		return w
	}
	switch {
	case strings.HasSuffix(w, "ations") && len(w) > 7:
		return w[:len(w)-4] // vibrations → vibrat
	case strings.HasSuffix(w, "ingly") && len(w) > 7:
		return w[:len(w)-5]
	case strings.HasSuffix(w, "iness") && len(w) > 7:
		return w[:len(w)-5]
	case strings.HasSuffix(w, "ation") && len(w) > 6:
		return w[:len(w)-3] // vibration → vibrat
	case strings.HasSuffix(w, "edly") && len(w) > 6:
		return w[:len(w)-4]
	case strings.HasSuffix(w, "ing") && len(w) > 5:
		return dedupFinal(w[:len(w)-3])
	case strings.HasSuffix(w, "ies") && len(w) > 4:
		return w[:len(w)-3] + "y"
	case strings.HasSuffix(w, "ed") && len(w) > 4:
		return dedupFinal(w[:len(w)-2])
	case strings.HasSuffix(w, "les") && len(w) > 5:
		return w[:len(w)-1] // crackles → crackle
	case strings.HasSuffix(w, "es") && len(w) > 4:
		return w[:len(w)-2]
	case strings.HasSuffix(w, "ly") && len(w) > 4:
		return w[:len(w)-2]
	case strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss") && len(w) > 3:
		return w[:len(w)-1]
	}
	return w
}

// dedupFinal removes a doubled final consonant ("stopp" → "stop").
func dedupFinal(w string) string {
	n := len(w)
	if n >= 2 && w[n-1] == w[n-2] && !isVowelByte(w[n-1]) {
		return w[:n-1]
	}
	return w
}

func isVowelByte(c byte) bool {
	switch c {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}

// StemGerman strips common German inflectional suffixes (CISTEM-style
// order, without the umlaut handling a full implementation would add).
func StemGerman(w string) string {
	if len(w) <= 4 {
		return w
	}
	for _, suf := range []string{"ungen", "heiten", "keiten"} {
		if strings.HasSuffix(w, suf) && len(w) > len(suf)+3 {
			return w[:len(w)-len(suf)]
		}
	}
	for _, suf := range []string{"ung", "heit", "keit", "isch", "lich", "end", "ern", "em", "en", "er", "es", "e", "s", "n", "t"} {
		if strings.HasSuffix(w, suf) && len(w)-len(suf) >= 4 {
			return w[:len(w)-len(suf)]
		}
	}
	return w
}

// Stem applies the stemmer for the given language code; unknown languages
// pass through unchanged (the safe choice for the multilingual corpus).
func Stem(w, lang string) string {
	switch lang {
	case LangEnglish:
		return StemEnglish(w)
	case LangGerman:
		return StemGerman(w)
	default:
		return w
	}
}

// Stemmer is a pipeline engine that sets the Stem of every token, using
// the segment language detected by the LanguageDetector (which must run
// earlier in the pipeline). Tokens in segments without a detected
// language keep their norm as stem.
type Stemmer struct{}

// Name implements pipeline.Engine.
func (Stemmer) Name() string { return "stemmer" }

// Process stems every token according to its segment language.
func (Stemmer) Process(c *cas.CAS) error {
	segs := c.Segments()
	toks := c.Tokens()
	for i := range toks {
		t := &toks[i]
		for len(segs) > 0 && segs[0].End < t.End {
			segs = segs[1:]
		}
		lang := LangUnknown
		if len(segs) > 0 && t.Begin >= segs[0].Begin && segs[0].Lang != "" {
			lang = segs[0].Lang
		}
		t.Stem = Stem(t.Norm, lang)
	}
	return nil
}
