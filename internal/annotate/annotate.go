// Package annotate marks up domain-specific concept mentions in report
// texts (paper §4.4 step 2b, §4.5.3). The optimized ConceptAnnotator
// compiles the multilingual taxonomy into a token trie and applies
// left-bounded greedy longest matching, eliminating concept matches that
// are completely enclosed by other matches and correctly capturing
// multiwords. The deliberately weak LegacyAnnotator reproduces the
// closed-source predecessor the paper measured against: it found no
// taxonomy concepts at all in 2,530 of the 7,500 data bundles, while the
// new annotator finds concepts in all of them.
package annotate

import (
	"strings"

	"repro/internal/cas"
	"repro/internal/taxonomy"
	"repro/internal/textproc"
	"repro/internal/trie"
)

// TypeConcept names the concept-mention layer the annotators fill.
const TypeConcept = cas.TypeConcept

// ConceptAnnotator is the optimized trie-based taxonomy annotator.
type ConceptAnnotator struct {
	trie  *trie.Trie
	kinds map[int]taxonomy.Kind
	// annotateKinds restricts which concept kinds are annotated; the
	// classifier uses components and symptoms (§4.5.3).
	annotateKinds map[taxonomy.Kind]bool
}

// Option configures a ConceptAnnotator.
type Option func(*ConceptAnnotator)

// WithKinds restricts annotation to the given concept kinds. The default
// follows the paper: components and symptoms only.
func WithKinds(kinds ...taxonomy.Kind) Option {
	return func(a *ConceptAnnotator) {
		a.annotateKinds = make(map[taxonomy.Kind]bool, len(kinds))
		for _, k := range kinds {
			a.annotateKinds[k] = true
		}
	}
}

// NewConceptAnnotator compiles the taxonomy into a trie covering all
// languages and all synonyms.
func NewConceptAnnotator(t *taxonomy.Taxonomy, opts ...Option) *ConceptAnnotator {
	a := &ConceptAnnotator{
		trie:  trie.New(),
		kinds: make(map[int]taxonomy.Kind, t.Len()),
		annotateKinds: map[taxonomy.Kind]bool{
			taxonomy.KindComponent: true,
			taxonomy.KindSymptom:   true,
		},
	}
	for _, o := range opts {
		o(a)
	}
	for _, c := range t.Concepts() {
		if !a.annotateKinds[c.Kind] {
			continue
		}
		a.kinds[c.ID] = c.Kind
		for _, lang := range c.Languages() {
			for _, syn := range c.Synonyms[lang] {
				tokens := textproc.Tokens(syn)
				if len(tokens) > 0 {
					a.trie.Insert(tokens, c.ID)
				}
			}
		}
	}
	return a
}

// Name implements pipeline.Engine.
func (a *ConceptAnnotator) Name() string { return "concept-annotator" }

// Process appends the concept mentions among the CAS's tokens to its
// concept layer; the Tokenizer engine must have run first. A mention
// never crosses a report boundary: a match may only extend to the last
// token of the CAS segment it starts in.
//
//qatk:hotpath
func (a *ConceptAnnotator) Process(c *cas.CAS) error {
	toks := c.Tokens()
	segs := c.Segments()
	form := func(i int) string { return matchForm(&toks[i]) }
	i, limit := 0, 0 // limit: one past the last token of token i's segment
	for i < len(toks) {
		if i >= limit {
			limit, segs = segmentEnd(toks, segs, i)
		}
		id, length := a.trie.LongestMatch(limit, form, i)
		if length == 0 {
			i++
			continue
		}
		m := cas.Concept{Begin: toks[i].Begin, End: toks[i+length-1].End, ID: id, Kind: string(a.kinds[id])}
		//qatk:allowalloc the concept layer grows until it fits the most mentions
		if err := c.AddConcept(m); err != nil {
			return err
		}
		// Left-bounded greedy: skip past the match, so matches enclosed
		// by this one are never emitted.
		i += length
	}
	return nil
}

// matchForm is the form of a token the trie matches: the SpellNormalizer's
// correction when one ran earlier in the pipeline ("electiral" then
// matches the taxonomy term "electrical"), otherwise the norm.
func matchForm(t *cas.Token) string {
	if t.Corrected != "" {
		return t.Corrected
	}
	return t.Norm
}

// segmentEnd returns one past the index of the last token in the segment
// that token i starts in. segs are the segments not yet passed, and it
// returns them from token i's segment on, so one walk over the tokens
// walks the segments once. A token outside every segment, as in a CAS
// without segments, bounds nothing: the result is then len(toks).
func segmentEnd(toks []cas.Token, segs []cas.Segment, i int) (int, []cas.Segment) {
	begin := toks[i].Begin
	for len(segs) > 0 && segs[0].End <= begin {
		segs = segs[1:]
	}
	if len(segs) == 0 || begin < segs[0].Begin {
		return len(toks), segs
	}
	j := i + 1
	for j < len(toks) && toks[j].Begin < segs[0].End {
		j++
	}
	return j, segs
}

// LegacyAnnotator reproduces the original closed-source taxonomy
// annotator's limitations (§4.5.3): it only knows the first German synonym
// of each concept, only matches single words (multiword terms are dropped
// entirely), and performs exact case-sensitive matching, so capitalized or
// English mentions are missed.
type LegacyAnnotator struct {
	terms map[string]legacyEntry
}

type legacyEntry struct {
	id   int
	kind taxonomy.Kind
}

// NewLegacyAnnotator builds the weak matcher from the taxonomy.
func NewLegacyAnnotator(t *taxonomy.Taxonomy) *LegacyAnnotator {
	a := &LegacyAnnotator{terms: make(map[string]legacyEntry, t.Len())}
	for _, c := range t.Concepts() {
		if c.Kind != taxonomy.KindComponent && c.Kind != taxonomy.KindSymptom {
			continue
		}
		syns := c.Synonyms["de"]
		if len(syns) == 0 {
			continue
		}
		first := syns[0]
		if strings.ContainsRune(first, ' ') {
			continue // the legacy code failed on multiwords
		}
		a.terms[first] = legacyEntry{id: c.ID, kind: c.Kind}
	}
	return a
}

// Name implements pipeline.Engine.
func (a *LegacyAnnotator) Name() string { return "legacy-concept-annotator" }

// Process annotates exact, case-sensitive single-token matches only.
func (a *LegacyAnnotator) Process(c *cas.CAS) error {
	text := c.Text()
	for _, t := range c.Tokens() {
		surface := text[t.Begin:t.End] // original casing, not the norm
		e, ok := a.terms[surface]
		if !ok {
			continue
		}
		if err := c.AddConcept(cas.Concept{Begin: t.Begin, End: t.End, ID: e.id, Kind: string(e.kind)}); err != nil {
			return err
		}
	}
	return nil
}
