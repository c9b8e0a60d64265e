package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/kb"
	"repro/internal/reldb"
)

func TestJaccard(t *testing.T) {
	j := Jaccard{}
	cases := []struct {
		shared, a, b int
		want         float64
	}{
		{0, 0, 0, 0},
		{2, 3, 3, 0.5},  // |A∪B| = 4
		{3, 3, 3, 1},    // identical sets
		{0, 5, 5, 0},    // disjoint
		{1, 1, 10, 0.1}, // subset
	}
	for i, c := range cases {
		if got := j.Score(c.shared, c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: jaccard = %v, want %v", i, got, c.want)
		}
	}
	if j.Name() != "jaccard" {
		t.Error("name wrong")
	}
}

func TestOverlap(t *testing.T) {
	o := Overlap{}
	cases := []struct {
		shared, a, b int
		want         float64
	}{
		{0, 0, 0, 0},
		{2, 2, 10, 1},  // A ⊂ B
		{1, 2, 4, 0.5}, // min = 2
		{0, 3, 3, 0},
	}
	for i, c := range cases {
		if got := o.Score(c.shared, c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: overlap = %v, want %v", i, got, c.want)
		}
	}
	if o.Name() != "overlap" {
		t.Error("name wrong")
	}
}

// Property: both similarities stay in [0,1] and overlap >= jaccard for any
// consistent (shared, a, b).
func TestSimilarityBoundsProperty(t *testing.T) {
	f := func(shared, a, b uint8) bool {
		s, sa, sb := int(shared%20), int(a%40), int(b%40)
		if s > sa || s > sb {
			return true // inconsistent triple, skip
		}
		j := Jaccard{}.Score(s, sa, sb)
		o := Overlap{}.Score(s, sa, sb)
		return j >= 0 && j <= 1 && o >= 0 && o <= 1 && o >= j-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSimilarityZeroSharedScoresZero pins Similarity's contract that two
// sets sharing nothing score 0, whatever their sizes: the knowledge base
// places such nodes of an unknown part's candidate set without scoring
// them.
func TestSimilarityZeroSharedScoresZero(t *testing.T) {
	for _, sim := range []Similarity{Jaccard{}, Overlap{}} {
		for a := 0; a <= 40; a++ {
			for b := 0; b <= 40; b++ {
				if got := sim.Score(0, a, b); got != 0 {
					t.Fatalf("%s.Score(0, %d, %d) = %v, want 0", sim.Name(), a, b, got)
				}
			}
		}
	}
}

func classifierFixture() *Classifier {
	m := kb.NewMemory()
	// P1 has three codes with distinctive and overlapping features.
	m.AddBundle("P1", "E_RADIO", []string{"crackle", "radio", "smell"})
	m.AddBundle("P1", "E_RADIO", []string{"crackle", "radio"})
	m.AddBundle("P1", "E_FAN", []string{"fan", "hum", "radio"})
	m.AddBundle("P1", "E_FUSE", []string{"blown", "fuse", "smell"})
	m.AddBundle("P2", "E_BRAKE", []string{"brake", "squeak"})
	return New(m, Jaccard{})
}

func TestRecommendRanksMostSimilarFirst(t *testing.T) {
	c := classifierFixture()
	got := c.Recommend("P1", []string{"crackle", "radio"})
	if len(got) == 0 || got[0].Code != "E_RADIO" {
		t.Fatalf("recommendations = %v", got)
	}
	if got[0].Score != 1.0 {
		t.Fatalf("top score = %v, want 1.0 (exact feature match)", got[0].Score)
	}
	// Codes are unique in the list.
	seen := map[string]bool{}
	for _, sc := range got {
		if seen[sc.Code] {
			t.Fatalf("duplicate code in list: %v", got)
		}
		seen[sc.Code] = true
	}
	// Scores are non-increasing.
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatalf("scores not sorted: %v", got)
		}
	}
}

func TestRecommendCandidateFiltering(t *testing.T) {
	c := classifierFixture()
	// "smell" is shared by E_RADIO and E_FUSE only.
	got := c.Recommend("P1", []string{"smell"})
	if len(got) != 2 {
		t.Fatalf("recommendations = %v", got)
	}
	for _, sc := range got {
		if sc.Code == "E_FAN" {
			t.Fatal("E_FAN should not be a candidate")
		}
	}
	// No shared features at all: empty list.
	if got := c.Recommend("P1", []string{"zzz"}); len(got) != 0 {
		t.Fatalf("recommendations = %v", got)
	}
}

func TestRecommendUnknownPartFallsBackToAllNodes(t *testing.T) {
	c := classifierFixture()
	got := c.Recommend("P_UNKNOWN", []string{"brake", "squeak"})
	if len(got) == 0 || got[0].Code != "E_BRAKE" {
		t.Fatalf("recommendations = %v", got)
	}
}

func TestRecommendNodeCutoff(t *testing.T) {
	m := kb.NewMemory()
	for i := 0; i < 60; i++ {
		code := string(rune('A' + i%40))
		m.AddBundle("P", "E_"+code+string(rune('0'+i/40)), []string{"x", feature(i)})
	}
	c := New(m, Jaccard{})
	got := c.Recommend("P", []string{"x"})
	if len(got) > DefaultNodeCutoff {
		t.Fatalf("list length %d exceeds node cutoff", len(got))
	}
}

func feature(i int) string { return "f" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) }

func TestRecommendDeterministicTieBreak(t *testing.T) {
	m := kb.NewMemory()
	m.AddBundle("P", "E_B", []string{"x"})
	m.AddBundle("P", "E_A", []string{"x"})
	c := New(m, Jaccard{})
	got := c.Recommend("P", []string{"x"})
	if len(got) != 2 || got[0].Code != "E_A" || got[1].Code != "E_B" {
		t.Fatalf("tie-break = %v", got)
	}
}

func TestMajorityVote(t *testing.T) {
	c := classifierFixture()
	// Among candidates sharing "radio": two E_RADIO nodes, one E_FAN.
	if got := c.MajorityVote("P1", []string{"radio"}, 3); got != "E_RADIO" {
		t.Fatalf("majority = %q", got)
	}
	if got := c.MajorityVote("P1", []string{"zzz"}, 3); got != "" {
		t.Fatalf("majority on empty candidates = %q", got)
	}
	// k <= 0 defaults sensibly instead of panicking.
	if got := c.MajorityVote("P1", []string{"radio"}, 0); got == "" {
		t.Fatal("default k returned nothing")
	}
}

// TestMajorityVoteInstability reproduces the Fig. 6 phenomenon: with
// different k the assigned class can flip, while the ranked list stays
// stable — the motivation for the ranked-list adaptation.
func TestMajorityVoteInstability(t *testing.T) {
	m := kb.NewMemory()
	// 2 very close A nodes, 4 more distant B nodes.
	m.AddBundle("P", "A", []string{"q1", "q2", "q3"})
	m.AddBundle("P", "A", []string{"q1", "q2", "q4"})
	m.AddBundle("P", "B", []string{"q1", "r1", "r2", "r3"})
	m.AddBundle("P", "B", []string{"q1", "r1", "r2", "r4"})
	m.AddBundle("P", "B", []string{"q1", "r1", "r3", "r5"})
	m.AddBundle("P", "B", []string{"q1", "r2", "r4", "r6"})
	c := New(m, Jaccard{})
	query := []string{"q1", "q2", "q3"}
	small := c.MajorityVote("P", query, 2)
	large := c.MajorityVote("P", query, 6)
	if small != "A" || large != "B" {
		t.Fatalf("votes = %q (k=2), %q (k=6); expected flip A→B", small, large)
	}
	// The ranked list puts A first regardless.
	if got := c.Recommend("P", query); got[0].Code != "A" {
		t.Fatalf("ranked list top = %v", got)
	}
}

func TestRank(t *testing.T) {
	list := []ScoredCode{{Code: "A"}, {Code: "B"}, {Code: "C"}}
	if Rank(list, "A") != 1 || Rank(list, "C") != 3 || Rank(list, "Z") != 0 {
		t.Fatal("Rank wrong")
	}
}

func TestResultsPersistence(t *testing.T) {
	db, _ := reldb.Open("")
	if err := CreateResultsTable(db); err != nil {
		t.Fatal(err)
	}
	list := []ScoredCode{{"E1", 0.9}, {"E2", 0.5}, {"E3", 0.1}}
	if err := SaveRecommendations(db, "R1", list); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRecommendations(db, "R1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Code != "E1" || got[2].Code != "E3" {
		t.Fatalf("loaded = %v", got)
	}
	// Limit.
	got, _ = LoadRecommendations(db, "R1", 2)
	if len(got) != 2 {
		t.Fatalf("limited = %v", got)
	}
	// Re-saving replaces.
	if err := SaveRecommendations(db, "R1", list[:1]); err != nil {
		t.Fatal(err)
	}
	got, _ = LoadRecommendations(db, "R1", 0)
	if len(got) != 1 {
		t.Fatalf("after replace = %v", got)
	}
	// Unknown bundle: empty, no error.
	got, err = LoadRecommendations(db, "R_missing", 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("missing = %v, %v", got, err)
	}
}

// Property: Recommend never returns duplicate codes, scores within [0,1]
// for Jaccard, and the list is sorted by descending score.
func TestRecommendInvariantsProperty(t *testing.T) {
	f := func(seed uint8) bool {
		m := kb.NewMemory()
		n := int(seed%13) + 3
		for i := 0; i < n; i++ {
			feats := []string{feature(i), feature(i + 1), "common"}
			m.AddBundle("P", "E"+string(rune('0'+i%7)), feats)
		}
		c := New(m, Jaccard{})
		got := c.Recommend("P", []string{"common", feature(int(seed) % 5)})
		seen := map[string]bool{}
		prev := 2.0
		for _, sc := range got {
			if seen[sc.Code] || sc.Score < 0 || sc.Score > 1 || sc.Score > prev {
				return false
			}
			seen[sc.Code] = true
			prev = sc.Score
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeightedVote(t *testing.T) {
	m := kb.NewMemory()
	// One very close A node vs two distant B nodes: unweighted k=3 voting
	// picks B, weighting picks A.
	m.AddBundle("P", "A", []string{"x", "y", "z"})
	m.AddBundle("P", "B", []string{"x", "r1", "r2", "r3", "r4", "r5"})
	m.AddBundle("P", "B", []string{"x", "s1", "s2", "s3", "s4", "s5"})
	c := New(m, Jaccard{})
	query := []string{"x", "y", "z"}
	if got := c.MajorityVote("P", query, 3); got != "B" {
		t.Fatalf("unweighted vote = %q, want B", got)
	}
	if got := c.WeightedVote("P", query, 3); got != "A" {
		t.Fatalf("weighted vote = %q, want A", got)
	}
	if got := c.WeightedVote("P", []string{"zzz"}, 3); got != "" {
		t.Fatalf("weighted vote on empty candidates = %q", got)
	}
	if got := c.WeightedVote("P", query, 0); got == "" {
		t.Fatal("default k returned nothing")
	}
}
