package kb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func buildSubsetKB(t *testing.T) *Memory {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	m := NewMemory()
	for i := 0; i < 300; i++ {
		part := fmt.Sprintf("P%03d", rng.Intn(15))
		code := fmt.Sprintf("E%03d", rng.Intn(12))
		n := 3 + rng.Intn(5)
		set := map[string]bool{}
		for len(set) < n {
			set[fmt.Sprintf("f%02d", rng.Intn(40))] = true
		}
		feats := make([]string, 0, len(set))
		for f := range set {
			feats = append(feats, f)
		}
		sort.Strings(feats)
		m.AddBundle(part, code, feats)
	}
	return m
}

// TestPartOwnerStable: the partitioning rule is a pure function of the
// part ID and shard count, and n<=1 collapses to shard 0.
func TestPartOwnerStable(t *testing.T) {
	for _, part := range []string{"P000", "P007", "weird part", ""} {
		for _, n := range []int{1, 2, 4, 7} {
			a, b := PartOwner(part, n), PartOwner(part, n)
			if a != b {
				t.Fatalf("PartOwner(%q,%d) unstable: %d vs %d", part, n, a, b)
			}
			if a < 0 || a >= n {
				t.Fatalf("PartOwner(%q,%d) = %d out of range", part, n, a)
			}
		}
		if PartOwner(part, 0) != 0 || PartOwner(part, -3) != 0 {
			t.Fatalf("PartOwner(%q, n<=1) must be 0", part)
		}
	}
}

// TestSubsetPartition: subsets cover the store exactly once — every node
// lands on its part's owner with its global node ID preserved, and the
// per-part views are identical to the source store's.
func TestSubsetPartition(t *testing.T) {
	src := buildSubsetKB(t)
	const n = 4
	shards := make([]*Memory, n)
	total, bundles := 0, 0
	for i := 0; i < n; i++ {
		shards[i] = Subset(src, i, n)
		total += shards[i].NodeCount()
		bundles += shards[i].BundleCount()
	}
	if total != src.NodeCount() {
		t.Fatalf("partitioned nodes = %d, want %d", total, src.NodeCount())
	}
	if bundles != src.BundleCount() {
		t.Fatalf("partitioned bundles = %d, want %d", bundles, src.BundleCount())
	}

	seen := map[int64]bool{}
	for i := 0; i < n; i++ {
		for _, node := range shards[i].AllNodes() {
			if seen[node.ID] {
				t.Fatalf("node %d appears in more than one shard", node.ID)
			}
			seen[node.ID] = true
			if owner := PartOwner(node.PartID, n); owner != i {
				t.Fatalf("node %d (part %s) on shard %d, owner is %d", node.ID, node.PartID, i, owner)
			}
		}
	}

	for p := 0; p < 15; p++ {
		part := fmt.Sprintf("P%03d", p)
		if !src.KnownPart(part) {
			continue
		}
		owner := PartOwner(part, n)
		for i := 0; i < n; i++ {
			if got := shards[i].KnownPart(part); got != (i == owner) {
				t.Fatalf("shard %d KnownPart(%s) = %v, owner is %d", i, part, got, owner)
			}
		}
		feats := make([]string, 40)
		for f := range feats {
			feats[f] = fmt.Sprintf("f%02d", f)
		}
		got := nodeIDs(shards[owner].Candidates(part, feats))
		want := nodeIDs(src.Candidates(part, feats))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("part %s: owner candidates %v, want %v", part, got, want)
		}
	}
}

// TestSubsetUnknownPartFallback: a subset keeps the store contract —
// Candidates for a part it does not own falls back to its own AllNodes,
// and CodeFrequencies aggregates only the kept partition.
func TestSubsetUnknownPartFallback(t *testing.T) {
	src := buildSubsetKB(t)
	s := Subset(src, 1, 4)
	got := nodeIDs(s.Candidates("PXXX", []string{"f01"}))
	want := nodeIDs(s.AllNodes())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unknown-part candidates = %v, want local AllNodes %v", got, want)
	}

	counts := map[string]int{}
	for _, node := range s.AllNodes() {
		counts[node.ErrorCode]++
	}
	freq := s.CodeFrequencies("PXXX")
	if len(freq) != len(counts) {
		t.Fatalf("fallback code frequencies: %d entries, want %d", len(freq), len(counts))
	}
	for _, cc := range freq {
		if cc.Count != counts[cc.Code] {
			t.Errorf("code %s count = %d, want %d", cc.Code, cc.Count, counts[cc.Code])
		}
	}
}

func nodeIDs(nodes []*Node) []int64 {
	out := make([]int64, len(nodes))
	for i, n := range nodes {
		out[i] = n.ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
