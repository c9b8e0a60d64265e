package cas

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestAnnotateAndSelect: engines annotate by appending to the typed
// layers, and Select views a layer's spans.
func TestAnnotateAndSelect(t *testing.T) {
	c := New("the radio crackles")
	for _, tok := range []Token{{Begin: 0, End: 3, Norm: "the"}, {Begin: 4, End: 9, Norm: "radio"}} {
		if err := c.AddToken(tok); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddConcept(Concept{Begin: 4, End: 9, ID: 7, Kind: "component"}); err != nil {
		t.Fatal(err)
	}
	if got := c.Tokens(); len(got) != 2 || got[1].Norm != "radio" {
		t.Fatalf("tokens = %+v", got)
	}
	if got := c.Concepts(); len(got) != 1 || got[0].ID != 7 || got[0].Kind != "component" {
		t.Fatalf("concepts = %+v", got)
	}
	if got, want := c.Select(TypeToken), []Span{{0, 3}, {4, 9}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Select(Token) = %v, want %v", got, want)
	}
	if got, want := c.Select(TypeConcept), []Span{{4, 9}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Select(Concept) = %v, want %v", got, want)
	}
	if got := c.Select("Language"); got != nil {
		t.Fatalf("Select of an unknown layer = %v, want nil", got)
	}
}

// TestAnnotateValidation: an append whose span lies outside the text is
// an error and leaves the layer as it was.
func TestAnnotateValidation(t *testing.T) {
	c := New("abc")
	for i, s := range []Span{{-1, 1}, {2, 1}, {0, 4}} {
		if err := c.AddToken(Token{Begin: s.Begin, End: s.End}); err == nil {
			t.Errorf("case %d: token span %v accepted", i, s)
		}
		if err := c.AddConcept(Concept{Begin: s.Begin, End: s.End}); err == nil {
			t.Errorf("case %d: concept span %v accepted", i, s)
		}
	}
	if len(c.Tokens()) != 0 || len(c.Concepts()) != 0 {
		t.Fatal("a rejected span was appended")
	}
	// Zero-width and full-span elements are legal.
	if err := c.AddToken(Token{Begin: 1, End: 1}); err != nil {
		t.Errorf("zero-width rejected: %v", err)
	}
	if err := c.AddConcept(Concept{Begin: 0, End: 3}); err != nil {
		t.Errorf("full-span rejected: %v", err)
	}
}

// TestDocumentOrder: a layer holds non-overlapping spans in document
// order, so an element that begins before the previous one ends is an
// error, never a reordering.
func TestDocumentOrder(t *testing.T) {
	c := New("aaaaaaaaaa")
	if err := c.AddToken(Token{Begin: 4, End: 6}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddToken(Token{Begin: 0, End: 2}); err == nil {
		t.Error("token before the previous one accepted")
	}
	if err := c.AddToken(Token{Begin: 5, End: 8}); err == nil {
		t.Error("token overlapping the previous one accepted")
	}
	if err := c.AddToken(Token{Begin: 6, End: 8}); err != nil {
		t.Errorf("adjacent token rejected: %v", err)
	}
	if err := c.AddConcept(Concept{Begin: 2, End: 6}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddConcept(Concept{Begin: 0, End: 9}); err == nil {
		t.Error("enclosing concept after an enclosed one accepted")
	}
	if got, want := c.Select(TypeToken), []Span{{4, 6}, {6, 8}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tokens = %v, want %v", got, want)
	}
}

func TestSegments(t *testing.T) {
	c := NewFromSegments([]struct{ Source, Text string }{
		{"mechanic", "radio dead"},
		{"supplier", "kontakt defekt"},
	})
	if c.Text() != "radio dead\nkontakt defekt" {
		t.Fatalf("text = %q", c.Text())
	}
	segs := c.Segments()
	if len(segs) != 2 || segs[0].Source != "mechanic" || segs[1].Source != "supplier" {
		t.Fatalf("segments = %v", segs)
	}
	if c.Text()[segs[1].Begin:segs[1].End] != "kontakt defekt" {
		t.Fatalf("segment span wrong: %v", segs[1])
	}
	if segs[0].Lang != "" || segs[1].Lang != "" {
		t.Fatalf("languages set before detection: %v", segs)
	}
}

// TestOneReportSharesText: a document of one report is that report's
// text, not a copy of it.
func TestOneReportSharesText(t *testing.T) {
	text := "radio dead"
	c := NewFromSegments([]struct{ Source, Text string }{{"mechanic", text}})
	if unsafe.StringData(c.Text()) != unsafe.StringData(text) {
		t.Fatal("one-report document copied its text")
	}
	if want := []Segment{{Source: "mechanic", Begin: 0, End: len(text)}}; !reflect.DeepEqual(c.Segments(), want) {
		t.Fatalf("segments = %v, want %v", c.Segments(), want)
	}
}

// TestReset: a reset CAS is the one-report document of its new text,
// with empty layers and metadata, and its layers keep their capacity.
func TestReset(t *testing.T) {
	c := NewFromSegments([]struct{ Source, Text string }{{"mechanic", "radio dead"}, {"supplier", "x"}})
	c.SetMetadata("part", "P7")
	c.Segments()[0].Lang = "en"
	if err := c.AddToken(Token{Begin: 0, End: 5, Norm: "radio"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddConcept(Concept{Begin: 0, End: 5, ID: 1}); err != nil {
		t.Fatal(err)
	}
	tokCap, conceptCap := cap(c.Tokens()), cap(c.Concepts())

	text := "fan"
	c.Reset("supplier", text)
	if unsafe.StringData(c.Text()) != unsafe.StringData(text) {
		t.Fatal("Reset copied the text")
	}
	if want := []Segment{{Source: "supplier", Begin: 0, End: 3}}; !reflect.DeepEqual(c.Segments(), want) {
		t.Fatalf("segments = %v, want %v", c.Segments(), want)
	}
	if len(c.Tokens()) != 0 || len(c.Concepts()) != 0 || c.Metadata("part") != "" {
		t.Fatal("Reset kept analysis results")
	}
	if cap(c.Tokens()) != tokCap || cap(c.Concepts()) != conceptCap {
		t.Fatal("Reset dropped the layers' capacity")
	}
	// Spans are checked against the new text.
	if err := c.AddToken(Token{Begin: 0, End: 5}); err == nil {
		t.Fatal("token beyond the reset text accepted")
	}
}

// TestGrow: Grow makes room for the requested elements without changing
// a layer's contents, and a reset keeps that room.
func TestGrow(t *testing.T) {
	c := New("radio dead")
	if err := c.AddToken(Token{Begin: 0, End: 5, Norm: "radio"}); err != nil {
		t.Fatal(err)
	}
	c.Grow(40, 20)
	if got := c.Tokens(); len(got) != 1 || got[0].Norm != "radio" || cap(got) < 41 {
		t.Fatalf("tokens after Grow(40, 20): %+v, cap %d", got, cap(got))
	}
	if got := c.Concepts(); len(got) != 0 || cap(got) < 20 {
		t.Fatalf("concepts after Grow(40, 20): %+v, cap %d", got, cap(got))
	}
	c.Reset("mechanic", "fan")
	if cap(c.Tokens()) < 41 || cap(c.Concepts()) < 20 {
		t.Fatal("Reset dropped the room Grow made")
	}
}

func TestMetadata(t *testing.T) {
	c := New("x")
	if c.Metadata("part") != "" {
		t.Fatal("unset metadata non-empty")
	}
	c.SetMetadata("part", "P7")
	if c.Metadata("part") != "P7" {
		t.Fatal("metadata not stored")
	}
}

// TestFeatures: a token's later features are typed fields, unset ("")
// until an engine sets them in place through the layer.
func TestFeatures(t *testing.T) {
	c := New("radio")
	if err := c.AddToken(Token{Begin: 0, End: 5, Norm: "radio"}); err != nil {
		t.Fatal(err)
	}
	if tok := c.Tokens()[0]; tok.Corrected != "" || tok.Stem != "" {
		t.Fatalf("unset features non-empty: %+v", tok)
	}
	toks := c.Tokens()
	toks[0].Corrected, toks[0].Stem = "radio", "radi"
	if tok := c.Tokens()[0]; tok.Corrected != "radio" || tok.Stem != "radi" || tok.Norm != "radio" {
		t.Fatalf("features not stored: %+v", tok)
	}
}

// Property: AddToken accepts exactly the spans inside the text, and an
// accepted span covers the text at the right place.
func TestCoveredTextProperty(t *testing.T) {
	f := func(text string, begin, end uint8) bool {
		c := New(text)
		b, e := int(begin), int(end)
		err := c.AddToken(Token{Begin: b, End: e})
		inRange := b <= e && e <= len(text)
		if err != nil || !inRange {
			return err != nil && !inRange
		}
		s := c.Select(TypeToken)[0]
		return text[s.Begin:s.End] == text[b:e]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
