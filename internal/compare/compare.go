// Package compare implements the use-case extension of §5.4: assigning
// error codes from the internal classification schema to texts from a
// different data source (the NHTSA ODI complaints) using the knowledge
// bases built from the internal data, then contrasting the error-code
// distributions of both sources side by side — the pie charts of Fig. 14.
package compare

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/bundle"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/nhtsa"
	"repro/internal/qatk"
)

// Share is one slice of a distribution.
type Share struct {
	Code     string
	Count    int
	Fraction float64
}

// Distribution is a source's error-code distribution.
type Distribution struct {
	Source string
	Total  int
	Shares []Share // sorted by descending count
}

// Top returns the n largest shares plus an aggregated "other" share.
func (d *Distribution) Top(n int) []Share {
	if n >= len(d.Shares) {
		return append([]Share(nil), d.Shares...)
	}
	out := append([]Share(nil), d.Shares[:n]...)
	other := Share{Code: "other"}
	for _, s := range d.Shares[n:] {
		other.Count += s.Count
	}
	if d.Total > 0 {
		other.Fraction = float64(other.Count) / float64(d.Total)
	}
	return append(out, other)
}

// FromCounts builds a distribution from code counts.
func FromCounts(source string, counts map[string]int) *Distribution {
	d := &Distribution{Source: source}
	for code, n := range counts {
		d.Total += n
		d.Shares = append(d.Shares, Share{Code: code, Count: n})
	}
	sort.Slice(d.Shares, func(i, j int) bool {
		if d.Shares[i].Count != d.Shares[j].Count {
			return d.Shares[i].Count > d.Shares[j].Count
		}
		return d.Shares[i].Code < d.Shares[j].Code
	})
	for i := range d.Shares {
		d.Shares[i].Fraction = float64(d.Shares[i].Count) / float64(d.Total)
	}
	return d
}

// InternalDistribution computes the distribution of assigned error codes in
// the internal bundle set.
func InternalDistribution(bundles []*bundle.Bundle) *Distribution {
	return FromCounts("internal OEM data", bundle.CodeCounts(bundles))
}

// Classifier assigns internal error codes to foreign complaint texts. The
// bag-of-concepts model is the natural choice here: it is "in principle
// independent of the document language or other text features" (§5.4),
// while bag-of-words degrades when training and test texts are different
// text types.
type Classifier struct {
	tk  *qatk.Toolkit
	clf *core.Classifier
}

// NewClassifier builds the cross-source classifier over an internal
// knowledge base, analyzing texts and scoring them the way tk does.
func NewClassifier(store kb.Store, tk *qatk.Toolkit) *Classifier {
	return &Classifier{tk: tk, clf: tk.Classifier(store)}
}

// ClassifyText assigns the best-ranked error code to one free text. The
// part ID of a complaint is generally unknown to the internal schema, so
// candidate selection falls back to the full knowledge base, exactly as
// §4.3 specifies for unknown part IDs. It returns "" when nothing matches.
func (c *Classifier) ClassifyText(partID, text string) (string, error) {
	feats, err := c.tk.Analyze(cas.New(strings.ToLower(text)))
	if err != nil {
		return "", err
	}
	list := c.clf.Recommend(partID, feats)
	if len(list) == 0 {
		return "", nil
	}
	return list[0].Code, nil
}

// ComplaintDistribution classifies every complaint and aggregates the
// assigned codes into a distribution. Unclassifiable complaints are counted
// under "unassigned".
func (c *Classifier) ComplaintDistribution(complaints []nhtsa.Complaint) (*Distribution, error) {
	counts := map[string]int{}
	for _, cm := range complaints {
		code, err := c.ClassifyText(cm.Component, cm.CDescr)
		if err != nil {
			return nil, fmt.Errorf("compare: complaint %d: %w", cm.ODINumber, err)
		}
		if code == "" {
			code = "unassigned"
		}
		counts[code]++
	}
	return FromCounts("NHTSA ODI complaints", counts), nil
}

// PrintSideBySide renders the Fig. 14 comparison as text: the top-n error
// codes of both sources with their shares.
func PrintSideBySide(w io.Writer, a, b *Distribution, n int) {
	fmt.Fprintf(w, "%-28s | %-28s\n", a.Source, b.Source)
	fmt.Fprintf(w, "%-28s | %-28s\n", strings.Repeat("-", 28), strings.Repeat("-", 28))
	ta, tb := a.Top(n), b.Top(n)
	rows := len(ta)
	if len(tb) > rows {
		rows = len(tb)
	}
	for i := 0; i < rows; i++ {
		left, right := "", ""
		if i < len(ta) {
			left = fmt.Sprintf("%-10s %5.1f%%", ta[i].Code, 100*ta[i].Fraction)
		}
		if i < len(tb) {
			right = fmt.Sprintf("%-10s %5.1f%%", tb[i].Code, 100*tb[i].Fraction)
		}
		fmt.Fprintf(w, "%-28s | %-28s\n", left, right)
	}
}

// HeadOverlap reports how many of the top-n codes the two sources share —
// a scalar summary of how similar the distributions look.
func HeadOverlap(a, b *Distribution, n int) int {
	set := map[string]bool{}
	for _, s := range a.Top(n) {
		if s.Code != "other" {
			set[s.Code] = true
		}
	}
	overlap := 0
	for _, s := range b.Top(n) {
		if set[s.Code] {
			overlap++
		}
	}
	return overlap
}
