package kb_test

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/reldb"
)

// sharedCount returns |a ∩ b| for two sorted string slices: the merge the
// classifier scored each candidate with before the knowledge base counted
// shared features during retrieval.
func sharedCount(a, b []string) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

func TestSharedCount(t *testing.T) {
	cases := []struct {
		a, b []string
		want int
	}{
		{nil, nil, 0},
		{[]string{"a"}, nil, 0},
		{[]string{"a", "b", "c"}, []string{"b", "c", "d"}, 2},
		{[]string{"a", "b"}, []string{"a", "b"}, 2},
		{[]string{"a", "c", "e"}, []string{"b", "d", "f"}, 0},
	}
	for i, c := range cases {
		if got := sharedCount(c.a, c.b); got != c.want {
			t.Errorf("case %d: shared = %d, want %d", i, got, c.want)
		}
	}
}

// scanRank is the oracle: the ranking as a scan computes it. It takes the
// candidate set from Candidates, scores each candidate by merging its
// features with the query's distinct sorted features, sorts all of them
// under the ranking's total order and cuts the list.
func scanRank(s *kb.Memory, partID string, features []string, sim kb.Scorer, cut int) ([]kb.Scored, int) {
	cands := s.Candidates(partID, features)
	query := slices.Clone(features)
	slices.Sort(query)
	query = slices.Compact(query)
	scored := make([]kb.Scored, len(cands))
	for i, n := range cands {
		scored[i] = kb.Scored{ID: n.ID, Code: n.ErrorCode,
			Score: sim.Score(sharedCount(query, n.Features), len(features), len(n.Features))}
	}
	sort.Slice(scored, func(i, j int) bool {
		a, b := scored[i], scored[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.ID < b.ID
	})
	return scored[:min(cut, len(scored))], len(cands)
}

// scanCandidates is the §4.3 candidate set by brute force over AllNodes, in
// the order Candidates promises: by query feature, then by node. An
// unknown part's candidate set is every node.
func scanCandidates(s *kb.Memory, partID string, features []string) []*kb.Node {
	all := s.AllNodes()
	if !slices.ContainsFunc(all, func(n *kb.Node) bool { return n.PartID == partID }) {
		return all
	}
	seen := map[int64]bool{}
	var out []*kb.Node
	for _, f := range features {
		for _, n := range all {
			if n.PartID == partID && !seen[n.ID] && slices.Contains(n.Features, f) {
				seen[n.ID] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// rankInput is one decoded FuzzRank input: training bundles and a query.
type rankInput struct {
	bundles []rankBundle
	part    string   // P0..P3, or PX, a part no bundle carries
	shard   int      // which half of a two-way Subset to check
	query   []string // over f0..f9; the bundles only use f0..f7
}

type rankBundle struct {
	part, code string
	features   []string
}

// decodeRankInput reads data as: a part selector (its top bit picks the
// Subset shard), a query length, that many query feature bytes, then one
// (part, code, feature mask) triple per bundle, at most 200 of them.
// Small alphabets make duplicate bundles, shared features, score ties,
// empty queries and nodes without features common.
func decodeRankInput(data []byte) rankInput {
	var in rankInput
	var head [2]byte
	data = data[copy(head[:], data):]
	if p := (head[0] & 0x7f) % 5; p < 4 {
		in.part = fmt.Sprintf("P%d", p)
	} else {
		in.part = "PX"
	}
	in.shard = int(head[0] >> 7)
	n := min(int(head[1]%16), len(data))
	for _, b := range data[:n] {
		in.query = append(in.query, fmt.Sprintf("f%d", b%10))
	}
	rest := data[n:]
	for i := 0; i+3 <= len(rest) && len(in.bundles) < 200; i += 3 {
		b := rankBundle{part: fmt.Sprintf("P%d", rest[i]%4), code: fmt.Sprintf("E%d", rest[i+1]%4)}
		for bit := 0; bit < 8; bit++ {
			if rest[i+2]&(1<<bit) != 0 {
				b.features = append(b.features, fmt.Sprintf("f%d", bit))
			}
		}
		in.bundles = append(in.bundles, b)
	}
	return in
}

// FuzzRank checks Store.Rank against the scan oracle on generated
// knowledge bases: trained through AddBundle, reloaded through a Persist
// and OpenDB round trip, and a two-way Subset of each. Every answer — node
// IDs, codes, score bits and the candidate count — must be identical, for
// both similarities and cuts of 1, 6, 25 and more than NodeCount. Each
// store's Candidates must also equal the brute-force candidate set.
func FuzzRank(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeRankInput(data)
		mem := kb.NewMemory()
		for _, b := range in.bundles {
			mem.AddBundle(b.part, b.code, b.features)
		}
		db, err := reldb.Open("")
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := kb.CreateTables(db); err != nil {
			t.Fatal(err)
		}
		if err := kb.Persist(db, mem); err != nil {
			t.Fatal(err)
		}
		loaded, err := kb.OpenDB(db)
		if err != nil {
			t.Fatal(err)
		}
		stores := map[string]*kb.Memory{
			"trained":        mem,
			"loaded":         loaded,
			"trained subset": kb.Subset(mem, in.shard, 2),
			"loaded subset":  kb.Subset(loaded, in.shard, 2),
		}
		for name, s := range stores {
			got, want := idsInOrder(s.Candidates(in.part, in.query)), idsInOrder(scanCandidates(s, in.part, in.query))
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Candidates(%s, %v) = %v, want %v", name, in.part, in.query, got, want)
			}
			for _, sim := range []core.Similarity{core.Jaccard{}, core.Overlap{}} {
				for _, cut := range []int{1, 6, 25, s.NodeCount() + 1} {
					got, gotN := s.Rank(in.part, in.query, sim, cut)
					want, wantN := scanRank(s, in.part, in.query, sim, cut)
					if gotN != wantN || !sameRanking(got, want) {
						t.Fatalf("%s: Rank(%s, %v, %s, %d) = %v (%d candidates), want %v (%d)",
							name, in.part, in.query, sim.Name(), cut, got, gotN, want, wantN)
					}
				}
			}
		}
	})
}

// idsInOrder lists the IDs of nodes in their order.
func idsInOrder(nodes []*kb.Node) []int64 {
	out := make([]int64, len(nodes))
	for i, n := range nodes {
		out[i] = n.ID
	}
	return out
}

// sameRanking compares two rankings node by node, scores by their bits.
func sameRanking(a, b []kb.Scored) bool {
	return slices.EqualFunc(a, b, func(x, y kb.Scored) bool {
		return x.ID == y.ID && x.Code == y.Code && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}

// TestRankAllocatesOnlyItsResult pins Rank's allocation contract: once the
// pooled workspace is warm, ranking a known part or scattering over an
// unknown one allocates the returned slice and nothing else, and so does
// the classifier built on it. Recommend allocates its two results: the
// node ranking and the code list collapsed from it.
func TestRankAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop workspaces at random")
	}
	mem := rankFixture()
	query := []string{"f03", "g05", "h07", "h07", "unknown"}
	clf := core.New(mem, core.Jaccard{})
	for _, part := range []string{"P3", "PX"} {
		if nodes, n := mem.Rank(part, query, core.Jaccard{}, core.DefaultNodeCutoff); len(nodes) == 0 || n == 0 {
			t.Fatalf("Rank(%s) found nothing to rank", part)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			mem.Rank(part, query, core.Jaccard{}, core.DefaultNodeCutoff)
		}); allocs != 1 {
			t.Errorf("Rank(%s): %v allocations per call, want 1 (its result)", part, allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() { clf.RecommendNodes(part, query) }); allocs != 1 {
			t.Errorf("RecommendNodes(%s): %v allocations per call, want 1 (its result)", part, allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() { clf.Recommend(part, query) }); allocs != 2 {
			t.Errorf("Recommend(%s): %v allocations per call, want 2 (the node ranking and the code list)", part, allocs)
		}
	}
}

// rankFixture is a 400-bundle knowledge base over seven parts whose
// nodes share features across parts.
func rankFixture() *kb.Memory {
	mem := kb.NewMemory()
	for i := 0; i < 400; i++ {
		feats := []string{fmt.Sprintf("f%02d", i%17), fmt.Sprintf("g%02d", i%23), fmt.Sprintf("h%02d", i%29)}
		slices.Sort(feats)
		mem.AddBundle(fmt.Sprintf("P%d", i%7), fmt.Sprintf("E%02d", i%31), feats)
	}
	return mem
}

// TestRankConcurrent ranks from several goroutines at once over two
// knowledge bases of different sizes, which share the workspace pool, and
// requires every answer to equal the one ranked alone.
func TestRankConcurrent(t *testing.T) {
	whole := rankFixture()
	stores := []kb.Store{whole, kb.Subset(whole, 0, 2)}
	parts := []string{"P0", "P1", "P2", "P3", "P4", "P5", "P6", "PX"}
	queries := [][]string{{"f01", "g02"}, {"f03", "g05", "h07", "h07"}, {"h11", "unknown"}, nil}
	type key struct{ store, part, query int }
	want := map[key][]kb.Scored{}
	for s, st := range stores {
		for p, part := range parts {
			for q, query := range queries {
				want[key{s, p, q}], _ = st.Rank(part, query, core.Jaccard{}, core.DefaultNodeCutoff)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := key{(g + i) % len(stores), i % len(parts), (g * i) % len(queries)}
				got, _ := stores[k.store].Rank(parts[k.part], queries[k.query], core.Jaccard{}, core.DefaultNodeCutoff)
				if !sameRanking(got, want[k]) {
					t.Errorf("goroutine %d: Rank%v = %v, want %v", g, k, got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCompareScoredOrdersCodesAsStrings: among equal scores, codes sort
// byte-wise, so a code sorts right after its prefixes ("E1", then "E10",
// then "E2"), and equal codes sort by node ID. FuzzRank's codes all have
// one length, so it cannot tell this order from a numeric one. Rank must
// keep the same order.
func TestCompareScoredOrdersCodesAsStrings(t *testing.T) {
	want := []kb.Scored{
		{ID: 6, Code: "E9", Score: 0.75},
		{ID: 3, Code: "E1", Score: 0.5},
		{ID: 2, Code: "E10", Score: 0.5},
		{ID: 4, Code: "E10", Score: 0.5},
		{ID: 1, Code: "E2", Score: 0.5},
		{ID: 5, Code: "E1", Score: 0.25},
	}
	for i, a := range want {
		if c := kb.CompareScored(a, a); c != 0 {
			t.Errorf("CompareScored(%v, itself) = %d, want 0", a, c)
		}
		for _, b := range want[i+1:] {
			if c := kb.CompareScored(a, b); c >= 0 {
				t.Errorf("CompareScored(%v, %v) = %d, want < 0", a, b, c)
			}
			if c := kb.CompareScored(b, a); c <= 0 {
				t.Errorf("CompareScored(%v, %v) = %d, want > 0", b, a, c)
			}
		}
	}

	// Every node shares f1 with the query and carries one feature more,
	// so all four tie at Jaccard 1/2. They are added out of order.
	mem := kb.NewMemory()
	mem.AddBundle("P", "E2", []string{"f1", "f2"})
	mem.AddBundle("P", "E10", []string{"f1", "f3"})
	mem.AddBundle("P", "E1", []string{"f1", "f4"})
	mem.AddBundle("P", "E10", []string{"f1", "f5"})
	got, _ := mem.Rank("P", []string{"f1"}, core.Jaccard{}, 3)
	if !sameRanking(got, want[1:4]) {
		t.Errorf("Rank = %v, want %v", got, want[1:4])
	}
}
