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
	"strconv"
	"strings"

	"repro/internal/cas"
	"repro/internal/taxonomy"
	"repro/internal/textproc"
	"repro/internal/trie"
)

// TypeConcept is the annotation type for taxonomy concept mentions.
const TypeConcept = "Concept"

// Features of TypeConcept annotations.
const (
	FeatConceptID = "concept" // numeric taxonomy concept ID
	FeatKind      = "kind"    // component / symptom / location / solution
)

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

// Process annotates concept mentions over the Token annotations of the
// CAS; the Tokenizer engine must have run first. A mention never crosses
// a report boundary: a match may only extend to the last token of the CAS
// segment it starts in.
func (a *ConceptAnnotator) Process(c *cas.CAS) error {
	toks := c.Select(textproc.TypeToken)
	norms := make([]string, len(toks))
	for i, t := range toks {
		// Prefer the SpellNormalizer's corrected form when a normalizer
		// ran earlier in the pipeline: "electiral" then matches the
		// taxonomy term "electrical".
		if fixed := t.Feature(textproc.FeatCorrected); fixed != "" {
			norms[i] = fixed
			continue
		}
		norms[i] = t.Feature(textproc.FeatNorm)
	}
	i, limit := 0, 0 // limit: one past the last token of token i's segment
	for i < len(norms) {
		if i >= limit {
			limit = segmentEnd(c, toks, i)
		}
		id, length := a.trie.LongestMatch(norms[:limit], i)
		if length == 0 {
			i++
			continue
		}
		ann := &cas.Annotation{
			Type:  TypeConcept,
			Begin: toks[i].Begin,
			End:   toks[i+length-1].End,
		}
		ann.SetFeature(FeatConceptID, strconv.Itoa(id))
		ann.SetFeature(FeatKind, string(a.kinds[id]))
		if err := c.Annotate(ann); err != nil {
			return err
		}
		// Left-bounded greedy: skip past the match, so matches enclosed
		// by this one are never emitted.
		i += length
	}
	return nil
}

// segmentEnd returns one past the index of the last token in the segment
// that token i starts in; a CAS without segments is one segment.
func segmentEnd(c *cas.CAS, toks []*cas.Annotation, i int) int {
	seg, ok := c.SegmentFor(toks[i].Begin)
	if !ok {
		return len(toks)
	}
	j := i + 1
	for j < len(toks) && toks[j].Begin < seg.End {
		j++
	}
	return j
}

// ConceptIDs extracts the distinct concept IDs annotated on a CAS, in
// first-occurrence order.
func ConceptIDs(c *cas.CAS) []int {
	var out []int
	seen := map[int]bool{}
	for _, a := range c.Select(TypeConcept) {
		id, err := strconv.Atoi(a.Feature(FeatConceptID))
		if err != nil {
			continue
		}
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
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
	for _, t := range c.Select(textproc.TypeToken) {
		surface := text[t.Begin:t.End] // original casing, not the norm
		e, ok := a.terms[surface]
		if !ok {
			continue
		}
		ann := &cas.Annotation{Type: TypeConcept, Begin: t.Begin, End: t.End}
		ann.SetFeature(FeatConceptID, strconv.Itoa(e.id))
		ann.SetFeature(FeatKind, string(e.kind))
		if err := c.Annotate(ann); err != nil {
			return err
		}
	}
	return nil
}
