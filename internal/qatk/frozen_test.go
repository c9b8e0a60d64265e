package qatk

import (
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/bundle"
	"repro/internal/kb"
	"repro/internal/taxonomy"
	"repro/internal/textproc"
	"repro/internal/trie"
)

// This file freezes the analysis chain as it was when every token and
// concept mention was a generic annotation with a map of string
// features: the tokenizer, spell normalizer, language detector, stemmer,
// segment-bounded trie annotator and extractor, each copied with the
// part of the annotation store it used. It is the oracle of
// TestFeaturesMatchOracle and FuzzFeatures, so that the engines are
// checked against the chain they replaced rather than against
// themselves. Only word-level functions and data that the engines still
// share (spelling correction, stemming, language detection, the stopword
// list, the trie) come from the production packages.

// frozenAnnotation is a typed feature structure anchored to a text span.
type frozenAnnotation struct {
	typ        string
	begin, end int
	features   map[string]string
}

func (a *frozenAnnotation) feature(name string) string { return a.features[name] }

func (a *frozenAnnotation) setFeature(name, value string) {
	if a.features == nil {
		a.features = make(map[string]string, 2)
	}
	a.features[name] = value
}

type frozenSegment struct{ begin, end int }

// frozenCAS is the generic annotation store: one list of annotations of
// every type, stably sorted into document order before each selection.
type frozenCAS struct {
	text        string
	segments    []frozenSegment
	annotations []*frozenAnnotation
	sorted      bool
}

// newFrozenCAS joins the bundle's present reports of sources with "\n",
// recording one segment per report, as the bundle's CAS does.
func newFrozenCAS(b *bundle.Bundle, sources []bundle.Source) *frozenCAS {
	c := &frozenCAS{sorted: true}
	var sb strings.Builder
	for _, s := range sources {
		t := b.ReportText(s)
		if t == "" {
			continue
		}
		if len(c.segments) > 0 {
			sb.WriteString("\n")
		}
		begin := sb.Len()
		sb.WriteString(t)
		c.segments = append(c.segments, frozenSegment{begin, sb.Len()})
	}
	c.text = sb.String()
	return c
}

func (c *frozenCAS) annotate(a *frozenAnnotation) {
	c.annotations = append(c.annotations, a)
	c.sorted = false
}

func (c *frozenCAS) selectType(typ string) []*frozenAnnotation {
	if !c.sorted {
		sort.SliceStable(c.annotations, func(i, j int) bool {
			a, b := c.annotations[i], c.annotations[j]
			if a.begin != b.begin {
				return a.begin < b.begin
			}
			if a.end != b.end {
				return a.end > b.end
			}
			return a.typ < b.typ
		})
		c.sorted = true
	}
	var out []*frozenAnnotation
	for _, a := range c.annotations {
		if a.typ == typ {
			out = append(out, a)
		}
	}
	return out
}

func (c *frozenCAS) selectCovered(typ string, begin, end int) []*frozenAnnotation {
	var out []*frozenAnnotation
	for _, a := range c.selectType(typ) {
		if a.begin >= begin && a.end <= end {
			out = append(out, a)
		}
	}
	return out
}

func (c *frozenCAS) segmentFor(offset int) (frozenSegment, bool) {
	for _, s := range c.segments {
		if offset >= s.begin && offset < s.end {
			return s, true
		}
	}
	return frozenSegment{}, false
}

// frozenTokenSpans is the tokenizer's span scan: a token is a maximal run
// of letters and digits, where a single hyphen or apostrophe between word
// runes stays inside the token.
func frozenTokenSpans(text string) [][2]int {
	var spans [][2]int
	i := 0
	for i < len(text) {
		r, size := utf8.DecodeRuneInString(text[i:])
		if !frozenWordRune(r) {
			i += size
			continue
		}
		begin := i
		j := i + size
		for j < len(text) {
			r, size := utf8.DecodeRuneInString(text[j:])
			if frozenWordRune(r) {
				j += size
				continue
			}
			if r == '-' || r == '\'' {
				r2, size2 := utf8.DecodeRuneInString(text[j+size:])
				if frozenWordRune(r2) {
					j += size + size2
					continue
				}
			}
			break
		}
		spans = append(spans, [2]int{begin, j})
		i = j
	}
	return spans
}

func frozenWordRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

func frozenTokens(text string) []string {
	var out []string
	for _, s := range frozenTokenSpans(text) {
		out = append(out, strings.ToLower(text[s[0]:s[1]]))
	}
	return out
}

func frozenTokenize(c *frozenCAS) {
	for _, s := range frozenTokenSpans(c.text) {
		a := &frozenAnnotation{typ: "Token", begin: s[0], end: s[1]}
		a.setFeature("norm", strings.ToLower(c.text[s[0]:s[1]]))
		c.annotate(a)
	}
}

func frozenSpellNormalize(c *frozenCAS, vocab textproc.Vocabulary) {
	for _, t := range c.selectType("Token") {
		if fixed := vocab.Correct(t.feature("norm")); fixed != "" {
			t.setFeature("corrected", fixed)
		}
	}
}

func frozenDetectLanguages(c *frozenCAS) {
	for _, seg := range c.segments {
		var norms []string
		for _, t := range c.selectCovered("Token", seg.begin, seg.end) {
			norms = append(norms, t.feature("norm"))
		}
		a := &frozenAnnotation{typ: "Language", begin: seg.begin, end: seg.end}
		a.setFeature("lang", textproc.DetectLanguage(norms))
		c.annotate(a)
	}
}

func frozenStem(c *frozenCAS) {
	langs := c.selectType("Language")
	for _, t := range c.selectType("Token") {
		lang := textproc.LangUnknown
		for _, l := range langs {
			if t.begin >= l.begin && t.end <= l.end {
				lang = l.feature("lang")
				break
			}
		}
		t.setFeature("stem", textproc.Stem(t.feature("norm"), lang))
	}
}

// frozenAnnotator is the trie annotator over components and symptoms.
type frozenAnnotator struct {
	trie  *trie.Trie
	kinds map[int]taxonomy.Kind
}

func newFrozenAnnotator(tax *taxonomy.Taxonomy) *frozenAnnotator {
	a := &frozenAnnotator{trie: trie.New(), kinds: map[int]taxonomy.Kind{}}
	for _, c := range tax.Concepts() {
		if c.Kind != taxonomy.KindComponent && c.Kind != taxonomy.KindSymptom {
			continue
		}
		a.kinds[c.ID] = c.Kind
		for _, lang := range c.Languages() {
			for _, syn := range c.Synonyms[lang] {
				if toks := frozenTokens(syn); len(toks) > 0 {
					a.trie.Insert(toks, c.ID)
				}
			}
		}
	}
	return a
}

// process is the left-bounded greedy longest match over the tokens'
// corrected forms (norms where uncorrected), each match ending within
// the segment it starts in.
func (a *frozenAnnotator) process(c *frozenCAS) {
	toks := c.selectType("Token")
	norms := make([]string, len(toks))
	for i, t := range toks {
		if fixed := t.feature("corrected"); fixed != "" {
			norms[i] = fixed
			continue
		}
		norms[i] = t.feature("norm")
	}
	i, limit := 0, 0
	for i < len(norms) {
		if i >= limit {
			limit = len(toks)
			if seg, ok := c.segmentFor(toks[i].begin); ok {
				limit = i + 1
				for limit < len(toks) && toks[limit].begin < seg.end {
					limit++
				}
			}
		}
		id, length := a.trie.LongestMatch(limit, func(j int) string { return norms[j] }, i)
		if length == 0 {
			i++
			continue
		}
		ann := &frozenAnnotation{typ: "Concept", begin: toks[i].begin, end: toks[i+length-1].end}
		ann.setFeature("concept", strconv.Itoa(id))
		ann.setFeature("kind", string(a.kinds[id]))
		c.annotate(ann)
		i += length
	}
}

// frozenVocabulary is the spelling vocabulary: every frozen token of the
// taxonomy's synonyms, and the stopwords.
func frozenVocabulary(tax *taxonomy.Taxonomy) textproc.Vocabulary {
	v := textproc.Vocabulary{}
	for _, c := range tax.Concepts() {
		for _, lang := range c.Languages() {
			for _, syn := range c.Synonyms[lang] {
				for _, tok := range frozenTokens(syn) {
					v[tok] = true
				}
			}
		}
	}
	for w := range textproc.NewStopwordSet() {
		v[w] = true
	}
	return v
}

// frozenChain is one toolkit configuration's analysis chain and extractor.
type frozenChain struct {
	model     kb.FeatureModel
	stopwords textproc.StopwordSet
	vocab     textproc.Vocabulary // nil without spelling normalization
	stems     bool
	annotator *frozenAnnotator // nil for bag-of-words
}

func newFrozenChain(tk *Toolkit) *frozenChain {
	ch := &frozenChain{model: tk.Model, stems: tk.Stemming}
	if tk.Stopwords && tk.Model == kb.BagOfWords {
		ch.stopwords = textproc.NewStopwordSet()
	}
	if tk.SpellNorm {
		ch.vocab = frozenVocabulary(tk.Taxonomy)
	}
	if tk.Model == kb.BagOfConcepts {
		ch.annotator = newFrozenAnnotator(tk.Taxonomy)
	}
	return ch
}

// features analyses the bundle's reports of sources as one document, the
// detector always on, and extracts its sorted, duplicate-free features.
func (ch *frozenChain) features(b *bundle.Bundle, sources []bundle.Source) []string {
	c := newFrozenCAS(b, sources)
	frozenTokenize(c)
	if ch.vocab != nil {
		frozenSpellNormalize(c, ch.vocab)
	}
	frozenDetectLanguages(c)
	if ch.stems {
		frozenStem(c)
	}
	if ch.annotator != nil {
		ch.annotator.process(c)
	}
	return ch.extract(c)
}

func (ch *frozenChain) extract(c *frozenCAS) []string {
	if ch.model == kb.BagOfConcepts {
		var ids []int
		seen := map[int]bool{}
		for _, a := range c.selectType("Concept") {
			id, err := strconv.Atoi(a.feature("concept"))
			if err != nil {
				continue
			}
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = strconv.Itoa(id)
		}
		sort.Strings(out)
		return out
	}
	seen := map[string]bool{}
	var out []string
	for _, t := range c.selectType("Token") {
		w := t.feature("norm")
		corrected := false
		if ch.vocab != nil {
			if fixed := t.feature("corrected"); fixed != "" {
				w = fixed
				corrected = true
			}
		}
		if ch.stems && !corrected {
			if stem := t.feature("stem"); stem != "" {
				w = stem
			}
		}
		if w == "" || seen[w] {
			continue
		}
		if ch.stopwords != nil && ch.stopwords.Contains(w) {
			continue
		}
		seen[w] = true
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}
