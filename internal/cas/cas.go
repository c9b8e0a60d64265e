// Package cas implements a Common Analysis Structure in the spirit of
// Apache UIMA (paper §4.5.2): a document text plus typed feature-structure
// annotations with start and end indexes relative to the text. One CAS
// holds one data bundle — all available reports and text descriptions plus
// the part ID and error code — and is handed from one analysis engine to
// the next so that annotators can build on previous findings.
package cas

import (
	"fmt"
	"sort"
	"strings"
)

// Segment records which report (source) contributed which span of the
// combined document text, so downstream engines can filter by source.
type Segment struct {
	Source string // e.g. "mechanic", "supplier", "part_desc"
	Begin  int
	End    int
}

// Annotation is a typed feature structure anchored to a text span.
// Begin is inclusive, End exclusive, both in bytes of the document text.
type Annotation struct {
	Type     string
	Begin    int
	End      int
	Features map[string]string
}

// Feature returns the named feature value ("" if unset).
func (a *Annotation) Feature(name string) string {
	if a.Features == nil {
		return ""
	}
	return a.Features[name]
}

// SetFeature sets a feature value, allocating the map on first use.
func (a *Annotation) SetFeature(name, value string) {
	if a.Features == nil {
		a.Features = make(map[string]string, 2)
	}
	a.Features[name] = value
}

// CAS is the analysis structure passed through a pipeline.
type CAS struct {
	text        string
	segments    []Segment
	annotations []*Annotation
	sorted      bool
	metadata    map[string]string
}

// New creates a CAS over the given document text.
func New(text string) *CAS {
	return &CAS{text: text, sorted: true}
}

// NewFromSegments assembles a document from labelled report texts, joining
// them with a newline and recording the segment boundaries.
func NewFromSegments(parts []struct{ Source, Text string }) *CAS {
	var b strings.Builder
	c := &CAS{sorted: true}
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

// Text returns the full document text.
func (c *CAS) Text() string { return c.text }

// Segments returns the recorded source segments.
func (c *CAS) Segments() []Segment { return c.segments }

// SegmentFor returns the segment containing the byte offset, if any.
func (c *CAS) SegmentFor(offset int) (Segment, bool) {
	for _, s := range c.segments {
		if offset >= s.Begin && offset < s.End {
			return s, true
		}
	}
	return Segment{}, false
}

// SetMetadata attaches document-level metadata (e.g. part ID, language).
func (c *CAS) SetMetadata(key, value string) {
	if c.metadata == nil {
		c.metadata = make(map[string]string, 4)
	}
	c.metadata[key] = value
}

// Metadata returns a document-level metadata value ("" if unset).
func (c *CAS) Metadata(key string) string { return c.metadata[key] }

// Annotate adds an annotation after validating its span.
func (c *CAS) Annotate(a *Annotation) error {
	if a == nil {
		return fmt.Errorf("cas: nil annotation")
	}
	if a.Type == "" {
		return fmt.Errorf("cas: annotation without type")
	}
	if a.Begin < 0 || a.End < a.Begin || a.End > len(c.text) {
		return fmt.Errorf("cas: annotation span [%d,%d) out of range for text of length %d", a.Begin, a.End, len(c.text))
	}
	c.annotations = append(c.annotations, a)
	c.sorted = false
	return nil
}

// MustAnnotate is Annotate that panics on invalid spans; for annotators
// that compute offsets themselves and treat violations as bugs.
func (c *CAS) MustAnnotate(a *Annotation) {
	if err := c.Annotate(a); err != nil {
		panic(err)
	}
}

// ensureSorted orders annotations by (Begin asc, End desc, Type asc) —
// the usual UIMA order, where enclosing annotations precede enclosed ones.
func (c *CAS) ensureSorted() {
	if c.sorted {
		return
	}
	sort.SliceStable(c.annotations, func(i, j int) bool {
		a, b := c.annotations[i], c.annotations[j]
		if a.Begin != b.Begin {
			return a.Begin < b.Begin
		}
		if a.End != b.End {
			return a.End > b.End
		}
		return a.Type < b.Type
	})
	c.sorted = true
}

// Select returns all annotations of the given type in document order.
func (c *CAS) Select(typeName string) []*Annotation {
	c.ensureSorted()
	var out []*Annotation
	for _, a := range c.annotations {
		if a.Type == typeName {
			out = append(out, a)
		}
	}
	return out
}

// SelectCovered returns annotations of the given type fully inside [begin,end).
func (c *CAS) SelectCovered(typeName string, begin, end int) []*Annotation {
	c.ensureSorted()
	var out []*Annotation
	for _, a := range c.annotations {
		if a.Type != typeName {
			continue
		}
		if a.Begin >= begin && a.End <= end {
			out = append(out, a)
		}
	}
	return out
}

// RemoveType deletes all annotations of the given type, returning how many
// were removed.
func (c *CAS) RemoveType(typeName string) int {
	kept := c.annotations[:0]
	n := 0
	for _, a := range c.annotations {
		if a.Type == typeName {
			n++
			continue
		}
		kept = append(kept, a)
	}
	c.annotations = kept
	return n
}

// CoveredText returns the text span of an annotation.
func (c *CAS) CoveredText(a *Annotation) string { return c.text[a.Begin:a.End] }

// Len reports the number of annotations.
func (c *CAS) Len() int { return len(c.annotations) }

// SelectOverlapping returns annotations of the given type whose span
// overlaps [begin, end) — e.g. the concept mentions touching a report
// segment regardless of exact containment.
func (c *CAS) SelectOverlapping(typeName string, begin, end int) []*Annotation {
	c.ensureSorted()
	var out []*Annotation
	for _, a := range c.annotations {
		if a.Type != typeName {
			continue
		}
		if a.Begin < end && a.End > begin {
			out = append(out, a)
		}
	}
	return out
}
