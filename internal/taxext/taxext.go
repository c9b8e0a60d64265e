// Package taxext implements the taxonomy adaptation the paper names as its
// most important next step (§5.2.2: "Adapting the taxonomy thus suggests
// itself", §6: "enhancing the domain-specific taxonomy"; cf. the Taxonomy
// Transfer companion paper [12]): mining the classified data bundles for
// domain terms that the legacy taxonomy does not cover and proposing them
// as new concepts, so that the bag-of-concepts model recovers the
// discriminative vocabulary that currently only bag-of-words exploits.
//
// The miner is deliberately simple and transparent, in the spirit of the
// paper's classifier: an uncovered token becomes a proposal when it occurs
// in enough bundles (support) and concentrates on one error code
// (confidence) — generic complaint vocabulary spreads over many codes and
// fails the confidence test, error-specific habitual wordings pass it.
package taxext

import (
	"fmt"
	"sort"

	"repro/internal/bundle"
	"repro/internal/cas"
	"repro/internal/qatk"
	"repro/internal/taxonomy"
	"repro/internal/textproc"
)

// Proposal is one mined candidate term.
type Proposal struct {
	Term       string  // the uncovered token
	ErrorCode  string  // the code it concentrates on
	Support    int     // bundles containing the term
	Confidence float64 // share of those bundles carrying ErrorCode
}

// The miner's thresholds: a term is proposed when it occurs in at least
// minSupport bundles, at least minConfidence of those carry one error
// code, and it is at least minTermLength bytes long.
const (
	minSupport    = 3
	minConfidence = 0.6
	minTermLength = 4
)

// Mine extracts proposals from classified bundles: it scans every bundle
// once for its candidate terms (NewAdaptation) and keeps the terms whose
// occurrence over all of them concentrates on a single error code.
func Mine(tax *taxonomy.Taxonomy, bundles []*bundle.Bundle) ([]Proposal, error) {
	a, err := NewAdaptation(tax, bundles)
	if err != nil {
		return nil, err
	}
	all := make([]int, len(bundles))
	for i := range all {
		all[i] = i
	}
	return a.propose(all), nil
}

// Adaptation adapts a taxonomy to subsets of a fixed set of classified
// bundles, such as the training folds of a cross-validation. A bundle's
// candidate terms do not depend on the subset, so NewAdaptation finds
// them once per bundle, and each Adapt call only sums them.
type Adaptation struct {
	tax   *taxonomy.Taxonomy
	codes []string   // each bundle's error code
	terms [][]string // each bundle's distinct candidate terms
	added []int      // concepts each Adapt call added
}

// NewAdaptation scans bundles for their candidate terms: the distinct
// tokens of each bundle's training-phase reports that no concept of tax
// covers (found by the trie annotator), that are not stopwords and that
// are at least minTermLength bytes long. Every bundle needs an error
// code. Each report is analysed on its own, as Toolkit.FeatureSets does;
// no engine looks across a report boundary, so the terms are those of
// the joined training-phase text.
func NewAdaptation(tax *taxonomy.Taxonomy, bundles []*bundle.Bundle) (*Adaptation, error) {
	a := &Adaptation{tax: tax, codes: make([]string, len(bundles)), terms: make([][]string, len(bundles))}
	tk := qatk.New(tax)
	stop := textproc.NewStopwordSet()
	c := new(cas.CAS)
	seen := map[string]bool{}
	for i, b := range bundles {
		if b.ErrorCode == "" {
			return nil, fmt.Errorf("taxext: bundle %s has no error code", b.RefNo)
		}
		a.codes[i] = b.ErrorCode
		clear(seen)
		for _, s := range bundle.TrainingSources() {
			text := b.ReportText(s)
			if text == "" {
				continue
			}
			c.Reset(string(s), text)
			if _, err := tk.Analyze(c); err != nil {
				return nil, fmt.Errorf("taxext: bundle %s, %s report: %w", b.RefNo, s, err)
			}
			// Byte ranges covered by concept mentions.
			covered := make([]bool, len(text))
			for _, m := range c.Concepts() {
				for p := m.Begin; p < m.End; p++ {
					covered[p] = true
				}
			}
			for _, t := range c.Tokens() {
				if covered[t.Begin] {
					continue // the taxonomy already knows this mention
				}
				w := t.Norm
				if len(w) < minTermLength || stop.Contains(w) || seen[w] {
					continue
				}
				seen[w] = true
				a.terms[i] = append(a.terms[i], w)
			}
		}
	}
	return a, nil
}

// Adapt extends a copy of the taxonomy with the proposals mined from the
// bundles at indexes train (Apply). It is the adapt step of
// eval.Experiment.RunAdapted, over the experiment's bundles.
func (a *Adaptation) Adapt(train []int) (*taxonomy.Taxonomy, error) {
	ext, added, err := Apply(a.tax, a.propose(train))
	if err != nil {
		return nil, err
	}
	a.added = append(a.added, added)
	return ext, nil
}

// Added returns the mean number of concepts an Adapt call added, rounded
// down: in a cross-validation, the concepts added per fold.
func (a *Adaptation) Added() int {
	total := 0
	for _, n := range a.added {
		total += n
	}
	return total / max(len(a.added), 1)
}

// propose sums the candidate terms of the bundles at idx and returns the
// terms that pass the miner's thresholds, most supported first.
func (a *Adaptation) propose(idx []int) []Proposal {
	// term → code → bundle count
	occur := map[string]map[string]int{}
	for _, i := range idx {
		for _, w := range a.terms[i] {
			m := occur[w]
			if m == nil {
				m = map[string]int{}
				occur[w] = m
			}
			m[a.codes[i]]++
		}
	}

	var out []Proposal
	for term, codes := range occur {
		support := 0
		bestCode, bestN := "", 0
		for code, n := range codes {
			support += n
			if n > bestN || (n == bestN && code < bestCode) {
				bestCode, bestN = code, n
			}
		}
		if support < minSupport {
			continue
		}
		conf := float64(bestN) / float64(support)
		if conf < minConfidence {
			continue
		}
		out = append(out, Proposal{Term: term, ErrorCode: bestCode, Support: support, Confidence: conf})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Term < out[j].Term
	})
	return out
}

// Apply extends a copy of the taxonomy with the proposals: the terms
// proposed for one error code form the synonym set of one new symptom
// concept (the habitual wording of that problem). It returns the extended
// taxonomy and the number of concepts added. The input taxonomy is not
// modified.
func Apply(tax *taxonomy.Taxonomy, proposals []Proposal) (*taxonomy.Taxonomy, int, error) {
	ext := tax.Clone()
	byCode := map[string][]string{}
	var codes []string
	for _, p := range proposals {
		if len(byCode[p.ErrorCode]) == 0 {
			codes = append(codes, p.ErrorCode)
		}
		byCode[p.ErrorCode] = append(byCode[p.ErrorCode], p.Term)
	}
	sort.Strings(codes)
	nextID := ext.MaxID() + 1
	added := 0
	for _, code := range codes {
		c := taxonomy.Concept{
			ID:   nextID,
			Kind: taxonomy.KindSymptom,
			Path: "Mined/" + code,
			// The mined terms are messy-report vocabulary without a clear
			// language; "und" (undetermined) keeps them multilingual.
			Synonyms: map[string][]string{"und": byCode[code]},
		}
		if err := ext.Add(c); err != nil {
			return nil, added, err
		}
		nextID++
		added++
	}
	return ext, added, nil
}
