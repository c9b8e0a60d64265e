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
	"sort"
	"strconv"

	"repro/internal/annotate"
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
// set. For BagOfWords it uses the lowercase forms of all Token annotations
// (optionally minus stopwords, the §5.2.2 runtime optimization); for
// BagOfConcepts it uses the numeric IDs of Concept annotations, without
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

// Features extracts the feature set of a CAS. The required annotations
// (Token, and Concept for BagOfConcepts) must already be present.
func (e *Extractor) Features(c *cas.CAS) []string {
	switch e.Model {
	case BagOfConcepts:
		ids := annotate.ConceptIDs(c)
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = strconv.Itoa(id)
		}
		sort.Strings(out)
		return out
	default: // BagOfWords
		seen := map[string]bool{}
		var out []string
		for _, t := range c.Select(textproc.TypeToken) {
			w := t.Feature(textproc.FeatNorm)
			corrected := false
			if e.UseCorrections {
				if fixed := t.Feature(textproc.FeatCorrected); fixed != "" {
					w = fixed
					corrected = true
				}
			}
			if e.UseStems && !corrected {
				if stem := t.Feature(textproc.FeatStem); stem != "" {
					w = stem
				}
			}
			if w == "" || seen[w] {
				continue
			}
			if e.Stopwords != nil && e.Stopwords.Contains(w) {
				continue
			}
			seen[w] = true
			out = append(out, w)
		}
		sort.Strings(out)
		return out
	}
}
