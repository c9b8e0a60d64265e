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

// Config tunes the miner.
type Config struct {
	MinSupport    int     // minimum bundles containing the term (default 3)
	MinConfidence float64 // minimum share of the top code (default 0.6)
	MinTermLength int     // minimum term length in bytes (default 4)
}

// DefaultConfig returns the miner defaults.
func DefaultConfig() Config {
	return Config{MinSupport: 3, MinConfidence: 0.6, MinTermLength: 4}
}

// Mine extracts proposals from classified training bundles. It tokenizes
// each bundle's training-phase text, removes everything the taxonomy
// already covers (via the trie annotator), stopwords and short tokens, and
// keeps terms whose occurrence concentrates on a single error code.
func Mine(tax *taxonomy.Taxonomy, bundles []*bundle.Bundle, cfg Config) ([]Proposal, error) {
	if cfg.MinSupport <= 0 {
		cfg.MinSupport = 3
	}
	if cfg.MinConfidence <= 0 {
		cfg.MinConfidence = 0.6
	}
	if cfg.MinTermLength <= 0 {
		cfg.MinTermLength = 4
	}
	tk := qatk.New(tax)
	stop := textproc.NewStopwordSet()

	// term → code → bundle count
	occur := map[string]map[string]int{}
	for _, b := range bundles {
		if b.ErrorCode == "" {
			return nil, fmt.Errorf("taxext: bundle %s has no error code", b.RefNo)
		}
		c := b.CAS(bundle.TrainingSources()...)
		if _, err := tk.Analyze(c); err != nil {
			return nil, err
		}
		// Byte ranges covered by concept mentions.
		covered := make([]bool, len(c.Text()))
		for _, m := range c.Concepts() {
			for i := m.Begin; i < m.End; i++ {
				covered[i] = true
			}
		}
		seen := map[string]bool{}
		for _, t := range c.Tokens() {
			if covered[t.Begin] {
				continue // the taxonomy already knows this mention
			}
			w := t.Norm
			if len(w) < cfg.MinTermLength || stop.Contains(w) || seen[w] {
				continue
			}
			seen[w] = true
			m := occur[w]
			if m == nil {
				m = map[string]int{}
				occur[w] = m
			}
			m[b.ErrorCode]++
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
		if support < cfg.MinSupport {
			continue
		}
		conf := float64(bestN) / float64(support)
		if conf < cfg.MinConfidence {
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
	return out, nil
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
