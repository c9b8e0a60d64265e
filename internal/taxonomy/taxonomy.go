// Package taxonomy models the multilingual automotive part-and-error
// taxonomy of the paper (§4.5.3, Fig. 10): a shallow structure that
// distinguishes components, symptoms, locations and solutions, whose upper
// category levels are language-independent with multilingual labels and
// whose leaf categories are language-specific synonym sets for the same
// concept ("mud guard", "splashboard" and "fender" all map to one concept
// ID). The taxonomy is persisted in a custom XML format and maintained
// through editor operations; prior research used it for information
// extraction, here it supplies the classification features of the
// bag-of-concepts model.
package taxonomy

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// Kind is the top-level category of a concept.
type Kind string

// The four top-level categories of the automotive taxonomy.
const (
	KindComponent Kind = "component"
	KindSymptom   Kind = "symptom"
	KindLocation  Kind = "location"
	KindSolution  Kind = "solution"
)

// Kinds lists all valid kinds in canonical order.
func Kinds() []Kind {
	return []Kind{KindComponent, KindSymptom, KindLocation, KindSolution}
}

func validKind(k Kind) bool {
	switch k {
	case KindComponent, KindSymptom, KindLocation, KindSolution:
		return true
	}
	return false
}

// Concept is one node of the taxonomy. Path holds the language-independent
// upper category levels ("Noise/HighNoise/Squeak"); Synonyms holds the
// language-specific leaf terms per language code ("de", "en"). Synonyms may
// be multiword.
type Concept struct {
	ID       int
	Kind     Kind
	Path     string
	Synonyms map[string][]string
}

// Label returns the preferred (first) synonym in the given language, or
// the last path element if the language is absent.
func (c *Concept) Label(lang string) string {
	if s := c.Synonyms[lang]; len(s) > 0 {
		return s[0]
	}
	if i := strings.LastIndexByte(c.Path, '/'); i >= 0 {
		return c.Path[i+1:]
	}
	return c.Path
}

// Languages returns the language codes the concept has synonyms for, sorted.
func (c *Concept) Languages() []string {
	langs := make([]string, 0, len(c.Synonyms))
	for l := range c.Synonyms {
		langs = append(langs, l)
	}
	sort.Strings(langs)
	return langs
}

// Taxonomy is a set of concepts with unique IDs.
type Taxonomy struct {
	concepts map[int]*Concept
}

// New creates an empty taxonomy.
func New() *Taxonomy {
	return &Taxonomy{concepts: make(map[int]*Concept)}
}

// Add inserts a concept after validation. The concept is copied.
func (t *Taxonomy) Add(c Concept) error {
	if c.ID <= 0 {
		return fmt.Errorf("taxonomy: concept ID must be positive, got %d", c.ID)
	}
	if !validKind(c.Kind) {
		return fmt.Errorf("taxonomy: concept %d has invalid kind %q", c.ID, c.Kind)
	}
	if c.Path == "" {
		return fmt.Errorf("taxonomy: concept %d has empty path", c.ID)
	}
	if err := checkXMLText("path", c.Path); err != nil {
		return fmt.Errorf("taxonomy: concept %d: %w", c.ID, err)
	}
	if _, exists := t.concepts[c.ID]; exists {
		return fmt.Errorf("taxonomy: duplicate concept ID %d", c.ID)
	}
	nonEmpty := 0
	for lang, syns := range c.Synonyms {
		if lang == "" {
			return fmt.Errorf("taxonomy: concept %d has empty language code", c.ID)
		}
		if err := checkXMLText("language code", lang); err != nil {
			return fmt.Errorf("taxonomy: concept %d: %w", c.ID, err)
		}
		for _, s := range syns {
			if strings.TrimSpace(s) == "" {
				return fmt.Errorf("taxonomy: concept %d has blank synonym in %q", c.ID, lang)
			}
			if err := checkXMLText("synonym", s); err != nil {
				return fmt.Errorf("taxonomy: concept %d: %w", c.ID, err)
			}
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		return fmt.Errorf("taxonomy: concept %d has no synonyms", c.ID)
	}
	cp := c
	cp.Synonyms = make(map[string][]string, len(c.Synonyms))
	for lang, syns := range c.Synonyms {
		cp.Synonyms[lang] = append([]string(nil), syns...)
	}
	t.concepts[c.ID] = &cp
	return nil
}

// Get returns the concept with the given ID.
func (t *Taxonomy) Get(id int) (*Concept, bool) {
	c, ok := t.concepts[id]
	return c, ok
}

// Remove deletes a concept; it reports whether the ID existed.
func (t *Taxonomy) Remove(id int) bool {
	if _, ok := t.concepts[id]; !ok {
		return false
	}
	delete(t.concepts, id)
	return true
}

// AddSynonym appends a synonym to a concept in the given language.
func (t *Taxonomy) AddSynonym(id int, lang, synonym string) error {
	c, ok := t.concepts[id]
	if !ok {
		return fmt.Errorf("taxonomy: no concept %d", id)
	}
	if strings.TrimSpace(synonym) == "" {
		return fmt.Errorf("taxonomy: blank synonym")
	}
	if lang == "" {
		return fmt.Errorf("taxonomy: empty language code")
	}
	if err := checkXMLText("synonym", synonym); err != nil {
		return fmt.Errorf("taxonomy: %w", err)
	}
	if err := checkXMLText("language code", lang); err != nil {
		return fmt.Errorf("taxonomy: %w", err)
	}
	for _, s := range c.Synonyms[lang] {
		if strings.EqualFold(s, synonym) {
			return nil // already present
		}
	}
	if c.Synonyms == nil {
		c.Synonyms = make(map[string][]string)
	}
	c.Synonyms[lang] = append(c.Synonyms[lang], synonym)
	return nil
}

// Rename changes a concept's path.
func (t *Taxonomy) Rename(id int, newPath string) error {
	c, ok := t.concepts[id]
	if !ok {
		return fmt.Errorf("taxonomy: no concept %d", id)
	}
	if newPath == "" {
		return fmt.Errorf("taxonomy: empty path")
	}
	if err := checkXMLText("path", newPath); err != nil {
		return fmt.Errorf("taxonomy: %w", err)
	}
	c.Path = newPath
	return nil
}

// checkXMLText rejects text that the XML file cannot carry: invalid UTF-8
// or a character outside XML 1.0's Char production. encoding/xml writes
// such text with U+FFFD in its place, so the file would reload a
// different term than the one saved.
func checkXMLText(what, s string) error {
	if !utf8.ValidString(s) {
		return fmt.Errorf("%s %q is not valid UTF-8", what, s)
	}
	for _, r := range s {
		if !(r == '\t' || r == '\n' || r == '\r' ||
			r >= 0x20 && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= utf8.MaxRune) {
			return fmt.Errorf("%s %q has character %U, which XML cannot carry", what, s, r)
		}
	}
	return nil
}

// Len reports the number of concepts.
func (t *Taxonomy) Len() int { return len(t.concepts) }

// Concepts returns all concepts sorted by ID.
func (t *Taxonomy) Concepts() []*Concept {
	out := make([]*Concept, 0, len(t.concepts))
	for _, c := range t.concepts {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByKind returns all concepts of one kind, sorted by ID.
func (t *Taxonomy) ByKind(kind Kind) []*Concept {
	var out []*Concept
	for _, c := range t.concepts {
		if c.Kind == kind {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CountSynonyms returns the total number of synonym entries in a language
// (the paper reports "about 1.800 / 1.900 distinct concepts in German and
// English respectively" — i.e. concepts carrying terms per language).
func (t *Taxonomy) CountSynonyms(lang string) int {
	n := 0
	for _, c := range t.concepts {
		n += len(c.Synonyms[lang])
	}
	return n
}

// CountConceptsWithLanguage returns how many concepts have at least one
// synonym in the given language.
func (t *Taxonomy) CountConceptsWithLanguage(lang string) int {
	n := 0
	for _, c := range t.concepts {
		if len(c.Synonyms[lang]) > 0 {
			n++
		}
	}
	return n
}

// ExpandSynonyms generates additional multiword synonyms by substituting
// sub-phrases: if a multiword synonym of concept A contains the full
// synonym of another concept B, variants are added that replace it with
// B's other synonyms of the same language. This mirrors the original
// approach of expanding "the concepts of the taxonomy with synonyms of
// concept label substrings as found in the taxonomy itself" (§4.5.3).
// It returns the number of synonyms added.
func (t *Taxonomy) ExpandSynonyms() int {
	// Synonym → sibling synonyms of the same concept, per language.
	type key struct{ lang, term string }
	groups := make(map[key][]string)
	for _, c := range t.concepts {
		for lang, syns := range c.Synonyms {
			for _, s := range syns {
				groups[key{lang, strings.ToLower(s)}] = syns
			}
		}
	}
	added := 0
	for _, c := range t.concepts {
		for lang, syns := range c.Synonyms {
			existing := make(map[string]bool, len(syns))
			for _, s := range syns {
				existing[strings.ToLower(s)] = true
			}
			var fresh []string
			for _, s := range syns {
				words := strings.Fields(strings.ToLower(s))
				if len(words) < 2 {
					continue
				}
				for _, w := range words {
					siblings, ok := groups[key{lang, w}]
					if !ok || len(siblings) < 2 {
						continue
					}
					for _, alt := range siblings {
						la := strings.ToLower(alt)
						if la == w {
							continue
						}
						variant := strings.Replace(strings.ToLower(s), w, la, 1)
						if !existing[variant] {
							existing[variant] = true
							fresh = append(fresh, variant)
							added++
						}
					}
				}
			}
			c.Synonyms[lang] = append(c.Synonyms[lang], fresh...)
		}
	}
	return added
}

// Clone returns a deep copy of the taxonomy, for task-specific adaptation
// without touching the shared resource (cf. [12], "Taxonomy Transfer").
func (t *Taxonomy) Clone() *Taxonomy {
	out := New()
	for _, c := range t.concepts {
		cp := *c
		cp.Synonyms = make(map[string][]string, len(c.Synonyms))
		for lang, syns := range c.Synonyms {
			cp.Synonyms[lang] = append([]string(nil), syns...)
		}
		out.concepts[cp.ID] = &cp
	}
	return out
}

// MaxID returns the highest concept ID in use (0 if empty), so extensions
// can allocate fresh IDs.
func (t *Taxonomy) MaxID() int {
	max := 0
	for id := range t.concepts {
		if id > max {
			max = id
		}
	}
	return max
}

// Validate checks global invariants; it is run after loading from XML.
func (t *Taxonomy) Validate() error {
	for id, c := range t.concepts {
		if id != c.ID {
			return fmt.Errorf("taxonomy: concept map key %d != ID %d", id, c.ID)
		}
		if !validKind(c.Kind) {
			return fmt.Errorf("taxonomy: concept %d has invalid kind %q", id, c.Kind)
		}
	}
	return nil
}
