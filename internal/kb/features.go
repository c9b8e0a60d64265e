// Package kb builds and serves the knowledge base of the QATK (paper §4.3,
// §4.4 step 3, Fig. 9). Each knowledge node represents one configuration
// instance — a unique combination of part ID, error code and feature set —
// abstracting away from individual data instances, which both shrinks the
// knowledge base and speeds up similarity computation (the kNN-Model idea
// of Guo et al. the paper adopts). Features are either all words of the
// document (domain-ignorant bag-of-words) or the taxonomy concept mentions
// (domain-specific bag-of-concepts).
package kb

import (
	"slices"
	"strconv"

	"repro/internal/cas"
	"repro/internal/textproc"
)

// FeatureModel selects how a document is abstracted into features.
type FeatureModel uint8

// The two feature models compared in experiment 1 (§5.2).
const (
	BagOfWords FeatureModel = iota + 1
	BagOfConcepts
)

// String names the model as in the paper.
func (m FeatureModel) String() string {
	switch m {
	case BagOfWords:
		return "bag-of-words"
	case BagOfConcepts:
		return "bag-of-concepts"
	}
	return "unknown"
}

// Extractor turns an analyzed CAS into a sorted, duplicate-free feature
// set. For BagOfWords it uses the lowercase forms of all tokens
// (optionally minus stopwords, the §5.2.2 runtime optimization); for
// BagOfConcepts it uses the numeric IDs of the concept mentions, without
// distinguishing concept types (§4.3).
type Extractor struct {
	Model     FeatureModel
	Stopwords textproc.StopwordSet // optional; BagOfWords only
	// UseCorrections substitutes the SpellNormalizer's corrected form for
	// a token when present ("more linguistic preprocessing", §6).
	UseCorrections bool
	// UseStems substitutes the Stemmer's language-dependent stem for a
	// token when present (skipped for tokens that were spell-corrected,
	// whose stem was computed from the uncorrected form).
	UseStems bool
}

// Features extracts the feature set of a CAS. The layers it reads (tokens,
// and concept mentions for BagOfConcepts) must already be filled.
func (e *Extractor) Features(c *cas.CAS) []string {
	if e.Model == BagOfConcepts {
		return conceptFeatures(c.Concepts())
	}
	toks := c.Tokens()
	out := make([]string, 0, len(toks))
	for i := range toks {
		w := e.word(&toks[i])
		if w == "" || e.Stopwords != nil && e.Stopwords.Contains(w) {
			continue
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// word is the bag-of-words form of a token.
func (e *Extractor) word(t *cas.Token) string {
	if e.UseCorrections && t.Corrected != "" {
		return t.Corrected
	}
	if e.UseStems && t.Stem != "" {
		return t.Stem
	}
	return t.Norm
}

// conceptFeatures returns the distinct concept IDs of mentions as
// strings, sorted as strings.
func conceptFeatures(mentions []cas.Concept) []string {
	var buf [64]int // a report's mentions fit; more spill to the heap
	ids := buf[:0]
	for _, m := range mentions {
		ids = append(ids, m.ID)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = strconv.Itoa(id)
	}
	slices.Sort(out)
	return out
}
