package shard

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/kb"
)

// buildKB synthesizes a deterministic knowledge base: `bundles` training
// bundles over `parts` part IDs, `codes` error codes, and a 50-feature
// vocabulary.
func buildKB(seed int64, parts, codes, bundles int) *kb.Memory {
	rng := rand.New(rand.NewSource(seed))
	m := kb.NewMemory()
	for i := 0; i < bundles; i++ {
		part := fmt.Sprintf("P%03d", rng.Intn(parts))
		code := fmt.Sprintf("E%03d", rng.Intn(codes))
		n := 3 + rng.Intn(6)
		set := map[string]bool{}
		for len(set) < n {
			set[fmt.Sprintf("f%02d", rng.Intn(50))] = true
		}
		features := make([]string, 0, len(set))
		for f := range set {
			features = append(features, f)
		}
		sort.Strings(features)
		m.AddBundle(part, code, features)
	}
	return m
}

// queryFeatures draws a deterministic query feature set.
func queryFeatures(rng *rand.Rand) []string {
	n := 2 + rng.Intn(5)
	set := map[string]bool{}
	for len(set) < n {
		set[fmt.Sprintf("f%02d", rng.Intn(50))] = true
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// newTestRouter partitions src n ways and builds a router with the given
// config overrides applied.
func newTestRouter(t *testing.T, src *kb.Memory, n int, mut func(*Config)) *Router {
	t.Helper()
	cfg := Config{Stores: PartitionStores(src, n)}
	if mut != nil {
		mut(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// TestShardedMatchesUnsharded: the merge is behavior-preserving — for
// every shard count, known parts and the unknown-part scatter fallback
// rank bit-identically to a single classifier over the whole store.
func TestShardedMatchesUnsharded(t *testing.T) {
	src := buildKB(7, 20, 15, 400)
	single := core.New(src, core.Jaccard{})
	rng := rand.New(rand.NewSource(11))

	queries := make([]struct {
		part  string
		feats []string
	}, 0, 40)
	for i := 0; i < 30; i++ {
		queries = append(queries, struct {
			part  string
			feats []string
		}{fmt.Sprintf("P%03d", rng.Intn(20)), queryFeatures(rng)})
	}
	for i := 0; i < 10; i++ { // parts no shard owns: the scatter fallback
		queries = append(queries, struct {
			part  string
			feats []string
		}{fmt.Sprintf("PX%02d", i), queryFeatures(rng)})
	}

	for _, n := range []int{1, 2, 4, 7} {
		r := newTestRouter(t, src, n, nil)
		for _, q := range queries {
			want := single.Recommend(q.part, q.feats)
			res, err := r.Query(context.Background(), q.part, q.feats)
			if err != nil {
				t.Fatalf("n=%d part=%s: %v", n, q.part, err)
			}
			if res.Degraded {
				t.Fatalf("n=%d part=%s: unexpected degraded response", n, q.part)
			}
			if !reflect.DeepEqual(res.Codes, want) {
				t.Errorf("n=%d part=%s: sharded ranking diverged\n got %v\nwant %v",
					n, q.part, res.Codes, want)
			}
			if known := src.KnownPart(q.part); known == res.Scatter {
				t.Errorf("n=%d part=%s: scatter=%v for known=%v", n, q.part, res.Scatter, known)
			}
		}
	}
}

// TestMergeNodesDeterministic: the merge order is total — score
// descending, then code, then node ID — and the cutoff applies after the
// merge.
func TestMergeNodesDeterministic(t *testing.T) {
	a := []kb.Scored{{ID: 4, Code: "E2", Score: 0.9}, {ID: 1, Code: "E1", Score: 0.5}}
	b := []kb.Scored{{ID: 3, Code: "E1", Score: 0.9}, {ID: 2, Code: "E3", Score: 0.5}}
	got := mergeNodes([][]kb.Scored{a, b}, 3)
	want := []kb.Scored{
		{ID: 3, Code: "E1", Score: 0.9}, // score ties break by code...
		{ID: 4, Code: "E2", Score: 0.9},
		{ID: 1, Code: "E1", Score: 0.5}, // ...then by node ID
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merge = %v, want %v", got, want)
	}
}

// TestRouterHealth: a fresh router reports every shard closed with its
// node count.
func TestRouterHealth(t *testing.T) {
	src := buildKB(3, 10, 8, 120)
	r := newTestRouter(t, src, 4, nil)
	hs := r.Health()
	if len(hs) != 4 {
		t.Fatalf("health entries = %d, want 4", len(hs))
	}
	total := 0
	for i, h := range hs {
		if h.ID != i || h.State != StateClosed || h.LastError != "" {
			t.Errorf("shard %d health = %+v", i, h)
		}
		total += h.Nodes
	}
	if total != src.NodeCount() {
		t.Errorf("partitioned nodes = %d, want %d", total, src.NodeCount())
	}
	if r.Degraded() {
		t.Error("fresh router reports degraded")
	}
}
