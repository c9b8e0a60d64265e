// Package cas implements a Common Analysis Structure in the spirit of
// Apache UIMA (paper §4.5.2): a document text plus typed feature
// structures with start and end indexes relative to the text. One CAS
// holds one data bundle — all available reports and text descriptions plus
// the part ID and error code — and is handed from one analysis engine to
// the next so that annotators can build on previous findings.
//
// The type system is fixed and small, so each type is a layer of plain
// values rather than a list of generic annotations with feature maps: a
// token layer, a concept-mention layer, and the language of each source
// segment. Engines append to a layer in document order and fill the later
// fields of its elements (a token's correction and stem) in place.
package cas

import (
	"fmt"
	"slices"
	"strings"
)

// Layer names accepted by Select.
const (
	TypeToken   = "Token"
	TypeConcept = "Concept"
)

// Span is a half-open byte range [Begin, End) of the document text.
type Span struct {
	Begin, End int
}

// Segment records which report (source) contributed which span of the
// combined document text, so downstream engines can filter by source.
type Segment struct {
	Source string // e.g. "mechanic", "supplier", "part_desc"
	Begin  int
	End    int
	Lang   string // set by the language detector; "" until it runs
}

// Token is one word of the document text.
type Token struct {
	Begin, End int
	Norm       string // the lowercased surface form
	Corrected  string // the spell normalizer's correction; "" if none
	Stem       string // the stemmer's stem; "" until it runs
}

// Concept is one taxonomy concept mention.
type Concept struct {
	Begin, End int
	ID         int    // taxonomy concept ID
	Kind       string // component / symptom / location / solution
}

// CAS is the analysis structure passed through a pipeline.
type CAS struct {
	text     string
	segments []Segment
	tokens   []Token
	concepts []Concept
	metadata map[string]string
}

// New creates a CAS over the given document text.
func New(text string) *CAS {
	return &CAS{text: text}
}

// NewFromSegments assembles a document from labelled report texts, joining
// them with a newline and recording the segment boundaries. A document of
// one report shares that report's text.
func NewFromSegments(parts []struct{ Source, Text string }) *CAS {
	c := &CAS{}
	if len(parts) == 1 {
		c.Reset(parts[0].Source, parts[0].Text)
		return c
	}
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteString("\n")
		}
		begin := b.Len()
		b.WriteString(p.Text)
		c.segments = append(c.segments, Segment{Source: p.Source, Begin: begin, End: b.Len()})
	}
	c.text = b.String()
	return c
}

// Reset makes c a one-segment document of text from source, as
// NewFromSegments does for one report, and drops its layers and metadata.
// The layers keep their capacity, so a caller analysing many reports in
// turn grows them once.
func (c *CAS) Reset(source, text string) {
	c.text = text
	c.segments = append(c.segments[:0], Segment{Source: source, End: len(text)})
	c.tokens = c.tokens[:0]
	c.concepts = c.concepts[:0]
	clear(c.metadata)
}

// Grow makes room in the token and concept layers for at least tokens
// and concepts more elements. A caller that knows how large its documents
// run sizes the layers once, instead of letting appends regrow them.
func (c *CAS) Grow(tokens, concepts int) {
	c.tokens = slices.Grow(c.tokens, tokens)
	c.concepts = slices.Grow(c.concepts, concepts)
}

// Text returns the full document text.
func (c *CAS) Text() string { return c.text }

// Segments returns the recorded source segments in document order. The
// language detector sets their Lang in place.
func (c *CAS) Segments() []Segment { return c.segments }

// SetMetadata attaches document-level metadata (e.g. part ID, error code).
func (c *CAS) SetMetadata(key, value string) {
	if c.metadata == nil {
		c.metadata = make(map[string]string, 4)
	}
	c.metadata[key] = value
}

// Metadata returns a document-level metadata value ("" if unset).
func (c *CAS) Metadata(key string) string { return c.metadata[key] }

// checkSpan validates a span appended after last, the end of the layer's
// previous element: layers hold non-overlapping spans in document order.
func (c *CAS) checkSpan(layer string, begin, end, last int) error {
	if begin < 0 || end < begin || end > len(c.text) {
		return fmt.Errorf("cas: %s span [%d,%d) out of range for text of length %d", layer, begin, end, len(c.text))
	}
	if begin < last {
		return fmt.Errorf("cas: %s span [%d,%d) begins before the previous one ends at %d", layer, begin, end, last)
	}
	return nil
}

// AddToken appends a token after validating its span.
func (c *CAS) AddToken(t Token) error {
	last := 0
	if n := len(c.tokens); n > 0 {
		last = c.tokens[n-1].End
	}
	if err := c.checkSpan("token", t.Begin, t.End, last); err != nil {
		return err
	}
	c.tokens = append(c.tokens, t)
	return nil
}

// Tokens returns the token layer in document order. Engines that run
// after the tokenizer set a token's Corrected and Stem in place.
func (c *CAS) Tokens() []Token { return c.tokens }

// AddConcept appends a concept mention after validating its span.
func (c *CAS) AddConcept(m Concept) error {
	last := 0
	if n := len(c.concepts); n > 0 {
		last = c.concepts[n-1].End
	}
	if err := c.checkSpan("concept", m.Begin, m.End, last); err != nil {
		return err
	}
	c.concepts = append(c.concepts, m)
	return nil
}

// Concepts returns the concept-mention layer in document order.
func (c *CAS) Concepts() []Concept { return c.concepts }

// Select returns the spans of the named layer (TypeToken or TypeConcept)
// in document order, and nil for any other name.
func (c *CAS) Select(typeName string) []Span {
	var out []Span
	switch typeName {
	case TypeToken:
		out = make([]Span, len(c.tokens))
		for i, t := range c.tokens {
			out[i] = Span{t.Begin, t.End}
		}
	case TypeConcept:
		out = make([]Span, len(c.concepts))
		for i, m := range c.concepts {
			out[i] = Span{m.Begin, m.End}
		}
	}
	return out
}
