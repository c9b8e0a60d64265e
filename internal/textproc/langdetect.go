package textproc

import (
	"repro/internal/cas"
)

// Language codes produced by the detector.
const (
	LangGerman  = "de"
	LangEnglish = "en"
	LangUnknown = "unk"
)

var (
	markersDE = buildMarkerSet(stopwordsDE, []string{
		"nicht", "defekt", "funktioniert", "beim", "wurde", "ausgetauscht",
		"geprüft", "keine", "kunde", "fehler", "und", "ist",
	})
	markersEN = buildMarkerSet(stopwordsEN, []string{
		"not", "defective", "works", "replaced", "checked", "customer",
		"failure", "and", "is", "the", "no",
	})
)

func buildMarkerSet(base, extra []string) map[string]bool {
	m := make(map[string]bool, len(base)+len(extra))
	for _, w := range base {
		m[w] = true
	}
	for _, w := range extra {
		m[w] = true
	}
	return m
}

// DetectLanguage guesses the dominant language of a token sequence by
// counting closed-class marker words. The reports are "mostly a mix of
// German and English" (§3.2); the detector therefore only distinguishes
// those two, answering LangUnknown when the evidence is balanced or absent.
func DetectLanguage(tokens []string) string {
	de, en := 0, 0
	for _, t := range tokens {
		// A word can be a marker in both languages (e.g. "an"); count both.
		if markersDE[t] {
			de++
		}
		if markersEN[t] {
			en++
		}
	}
	switch {
	case de > en:
		return LangGerman
	case en > de:
		return LangEnglish
	default:
		return LangUnknown
	}
}

// LanguageDetector is a pipeline engine. It requires the Tokenizer to have
// run and sets each source segment's Lang to the guess for that segment's
// tokens, so later engines can treat a German supplier report differently
// from an English mechanic report within the same bundle.
type LanguageDetector struct{}

// Name implements pipeline.Engine.
func (LanguageDetector) Name() string { return "language-detector" }

// Process detects the language of every segment.
func (LanguageDetector) Process(c *cas.CAS) error {
	toks, segs := c.Tokens(), c.Segments()
	var norms []string
	for i := range segs {
		seg := &segs[i]
		norms = norms[:0]
		for len(toks) > 0 && toks[0].Begin < seg.End {
			if toks[0].Begin >= seg.Begin {
				norms = append(norms, toks[0].Norm)
			}
			toks = toks[1:]
		}
		seg.Lang = DetectLanguage(norms)
	}
	return nil
}
