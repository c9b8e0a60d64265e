package kb

import (
	"reflect"
	"testing"

	"repro/internal/annotate"
	"repro/internal/cas"
	"repro/internal/reldb"
	"repro/internal/taxonomy"
	"repro/internal/textproc"
)

func TestExtractorBagOfWords(t *testing.T) {
	c := cas.New("The radio the RADIO crackles")
	if err := (textproc.Tokenizer{}).Process(c); err != nil {
		t.Fatal(err)
	}
	e := &Extractor{Model: BagOfWords}
	got := e.Features(c)
	want := []string{"crackles", "radio", "the"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("features = %v", got)
	}
}

func TestExtractorBagOfWordsStopwords(t *testing.T) {
	c := cas.New("The radio crackles and the fan hums")
	if err := (textproc.Tokenizer{}).Process(c); err != nil {
		t.Fatal(err)
	}
	e := &Extractor{Model: BagOfWords, Stopwords: textproc.NewStopwordSet()}
	got := e.Features(c)
	want := []string{"crackles", "fan", "hums", "radio"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("features = %v", got)
	}
}

func TestExtractorBagOfConcepts(t *testing.T) {
	tax := taxonomy.New()
	if err := tax.Add(taxonomy.Concept{ID: 11, Kind: taxonomy.KindComponent, Path: "Radio",
		Synonyms: map[string][]string{"en": {"radio"}}}); err != nil {
		t.Fatal(err)
	}
	if err := tax.Add(taxonomy.Concept{ID: 22, Kind: taxonomy.KindSymptom, Path: "Crackle",
		Synonyms: map[string][]string{"en": {"crackles", "crackling sound"}}}); err != nil {
		t.Fatal(err)
	}
	c := cas.New("radio crackles with crackling sound")
	if err := (textproc.Tokenizer{}).Process(c); err != nil {
		t.Fatal(err)
	}
	if err := annotate.NewConceptAnnotator(tax).Process(c); err != nil {
		t.Fatal(err)
	}
	e := &Extractor{Model: BagOfConcepts}
	got := e.Features(c)
	want := []string{"11", "22"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("features = %v", got)
	}
}

func memFixture() *Memory {
	m := NewMemory()
	m.AddBundle("P1", "E1", []string{"crackle", "radio"})
	m.AddBundle("P1", "E1", []string{"crackle", "radio"}) // duplicate config instance
	m.AddBundle("P1", "E2", []string{"fan", "hum"})
	m.AddBundle("P1", "E1", []string{"radio", "smell"})
	m.AddBundle("P2", "E3", []string{"brake", "squeak"})
	return m
}

func TestMemoryDedupAndCounts(t *testing.T) {
	m := memFixture()
	if m.NodeCount() != 4 {
		t.Fatalf("nodes = %d, want 4 (dedup)", m.NodeCount())
	}
	if m.BundleCount() != 5 {
		t.Fatalf("bundles = %d, want 5", m.BundleCount())
	}
	if m.DistinctCodes() != 3 {
		t.Fatalf("codes = %d", m.DistinctCodes())
	}
}

func TestMemoryCandidates(t *testing.T) {
	m := memFixture()
	// Shares "radio": both E1 nodes, not the fan node.
	cands := m.Candidates("P1", []string{"radio"})
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(cands))
	}
	for _, n := range cands {
		if n.ErrorCode != "E1" {
			t.Fatalf("unexpected candidate %+v", n)
		}
	}
	// Multiple query features do not duplicate nodes.
	cands = m.Candidates("P1", []string{"radio", "crackle"})
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(cands))
	}
	// No shared feature: empty.
	if got := m.Candidates("P1", []string{"zzz"}); len(got) != 0 {
		t.Fatalf("candidates = %v", got)
	}
	// Unknown part: all nodes (paper fallback).
	if got := m.Candidates("P99", []string{"radio"}); len(got) != m.NodeCount() {
		t.Fatalf("fallback candidates = %d", len(got))
	}
}

func TestMemoryCodeFrequencies(t *testing.T) {
	m := memFixture()
	freqs := m.CodeFrequencies("P1")
	if len(freqs) != 2 || freqs[0].Code != "E1" || freqs[0].Count != 3 || freqs[1].Code != "E2" {
		t.Fatalf("freqs = %v", freqs)
	}
	// Unknown part falls back to global counts.
	global := m.CodeFrequencies("P99")
	if len(global) != 3 || global[0].Code != "E1" {
		t.Fatalf("global = %v", global)
	}
}

func TestCodeFrequencyTieBreak(t *testing.T) {
	m := NewMemory()
	m.AddBundle("P", "B", []string{"x"})
	m.AddBundle("P", "A", []string{"y"})
	freqs := m.CodeFrequencies("P")
	if freqs[0].Code != "A" || freqs[1].Code != "B" {
		t.Fatalf("tie-break order = %v", freqs)
	}
}

// TestOpenDBRoundTrip: OpenDB after Persist(m) answers every Store method
// exactly like m — same nodes with the same IDs in the same order — and a
// database that still carries the retired kb_features table keeps loading.
func TestOpenDBRoundTrip(t *testing.T) {
	m := memFixture()
	db, _ := reldb.Open("")
	if err := CreateTables(db); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(reldb.Schema{
		Name: "kb_features",
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.TInt},
			{Name: "node_id", Type: reldb.TInt, NotNull: true},
			{Name: "part_id", Type: reldb.TString, NotNull: true},
			{Name: "feature", Type: reldb.TString, NotNull: true},
		},
		PrimaryKey: "id",
	}); err != nil {
		t.Fatal(err)
	}
	if err := Persist(db, m); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDB(db)
	if err != nil {
		t.Fatal(err)
	}
	if s.NodeCount() != m.NodeCount() {
		t.Fatalf("node count = %d vs %d", s.NodeCount(), m.NodeCount())
	}
	if s.BundleCount() != m.BundleCount() {
		t.Fatalf("bundle count = %d vs %d", s.BundleCount(), m.BundleCount())
	}
	if s.DistinctCodes() != m.DistinctCodes() {
		t.Fatalf("distinct codes = %d vs %d", s.DistinctCodes(), m.DistinctCodes())
	}
	if !reflect.DeepEqual(s.AllNodes(), m.AllNodes()) {
		t.Fatalf("AllNodes differ:\n got %v\nwant %v", s.AllNodes(), m.AllNodes())
	}
	for _, part := range []string{"P1", "P2", "P99"} {
		if s.KnownPart(part) != m.KnownPart(part) {
			t.Fatalf("KnownPart(%s) = %v, want %v", part, s.KnownPart(part), m.KnownPart(part))
		}
		if got, want := s.CodeFrequencies(part), m.CodeFrequencies(part); !reflect.DeepEqual(got, want) {
			t.Fatalf("CodeFrequencies(%s) = %v, want %v", part, got, want)
		}
		for _, feats := range [][]string{{"radio"}, {"crackle", "fan", "radio"}, {"brake"}, {"zzz"}, nil} {
			if got, want := s.Candidates(part, feats), m.Candidates(part, feats); !reflect.DeepEqual(got, want) {
				t.Fatalf("Candidates(%s, %v) = %v, want %v", part, feats, got, want)
			}
		}
	}
	// The loaded Memory keeps training: the next node gets a fresh ID and
	// an identical configuration instance is deduplicated.
	if n := s.AddBundle("P1", "E1", []string{"crackle", "radio"}); n.ID != 1 {
		t.Fatalf("duplicate configuration instance got new node %d", n.ID)
	}
	if n := s.AddBundle("P3", "E4", []string{"door"}); n.ID != int64(m.NodeCount())+1 {
		t.Fatalf("new node ID = %d, want %d", n.ID, m.NodeCount()+1)
	}
}

func TestOpenDBRequiresSchema(t *testing.T) {
	db, _ := reldb.Open("")
	if _, err := OpenDB(db); err == nil {
		t.Fatal("OpenDB without schema accepted")
	}
}

func TestFeatureModelString(t *testing.T) {
	if BagOfWords.String() != "bag-of-words" || BagOfConcepts.String() != "bag-of-concepts" {
		t.Fatal("model names wrong")
	}
	if FeatureModel(99).String() != "unknown" {
		t.Fatal("unknown model name wrong")
	}
}
