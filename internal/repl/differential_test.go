package repl_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/qatk"
	"repro/internal/reldb"
	"repro/internal/repl"
	"repro/internal/shard"
)

// TestServingPathsAgree is the one-implementation contract on a generated
// corpus: every path that serves recommendations — the trained Memory, the
// Memory loaded back from the database, the router over 1 and 3 part
// partitions, and a router whose primaries all fail so that only a replica
// answers, once for a replica bootstrapped from a snapshot holding the
// knowledge base and once for one that tailed it in — must return the very
// same ranked codes for every held-out query, scatter queries for unknown
// parts included.
func TestServingPathsAgree(t *testing.T) {
	corpus, err := datagen.Generate(datagen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	bundles := bundle.FilterMultiOccurrence(corpus.Bundles)
	folds := eval.StratifiedFolds(bundles, 5, 1)
	heldOut := map[int]bool{}
	for _, idx := range folds[0] {
		heldOut[idx] = true
	}
	var train []*bundle.Bundle
	for i, b := range bundles {
		if !heldOut[i] {
			train = append(train, b)
		}
	}
	tk := qatk.New(corpus.Taxonomy) // bag-of-concepts + Jaccard
	mem, err := tk.Train(train)
	if err != nil {
		t.Fatal(err)
	}

	type query struct {
		part  string
		feats []string
	}
	var queries []query
	for i, idx := range folds[0] {
		feats, err := tk.Features(bundles[idx], bundle.TestSources())
		if err != nil {
			t.Fatal(err)
		}
		part := bundles[idx].PartID
		if i%10 == 0 {
			part = "UNKNOWN-PART" // owned by one shard, known to none
		}
		queries = append(queries, query{part, feats})
	}
	if len(queries) < 20 {
		t.Fatalf("fold 0 holds only %d queries", len(queries))
	}

	// A durable primary: one replica bootstraps before the knowledge base
	// exists and must tail it in; the other bootstraps from a snapshot
	// that already holds it.
	db, err := reldb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	p, err := repl.NewPrimary(db)
	if err != nil {
		t.Fatal(err)
	}
	tailed := newReplica(t, p, repl.Config{ID: "tailed"})
	tailed.Start()
	waitFor(t, "tailed replica bootstrap", tailed.Synced)
	if tailed.Ready() {
		t.Fatal("replica of a database without a knowledge base claims Ready")
	}
	if err := tk.PersistKB(db, mem); err != nil {
		t.Fatal(err)
	}
	booted := newReplica(t, p, repl.Config{ID: "booted"})
	booted.Start()
	converged(t, booted, db)
	converged(t, tailed, db)
	waitFor(t, "tailed replica to load the knowledge base", tailed.Ready)

	loaded, err := kb.OpenDB(db)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]core.ScoredCode, len(queries))
	for i, q := range queries {
		want[i] = core.New(mem, core.Jaccard{}).Recommend(q.part, q.feats)
	}

	check := func(path string, recommend func(part string, feats []string) []core.ScoredCode) {
		t.Helper()
		for i, q := range queries {
			if got := recommend(q.part, q.feats); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s, query %d (part %s):\n got %v\nwant %v", path, i, q.part, got, want[i])
			}
		}
	}
	route := func(path string, cfg shard.Config, fromReplica bool) {
		t.Helper()
		r, err := shard.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		check(path, func(part string, feats []string) []core.ScoredCode {
			res, err := r.Query(context.Background(), part, feats)
			if err != nil {
				t.Fatalf("%s: query %s: %v", path, part, err)
			}
			if res.Degraded || res.Replica != fromReplica {
				t.Fatalf("%s: query %s answered degraded=%v replica=%v", path, part, res.Degraded, res.Replica)
			}
			return res.Codes
		})
	}

	check("loaded Memory", core.New(loaded, core.Jaccard{}).Recommend)
	for _, n := range []int{1, 3} {
		route("router", shard.Config{Stores: shard.PartitionStores(loaded, n)}, false)
	}
	primaryDown := func(context.Context, int, int) error { return errors.New("primary down") }
	for _, rep := range []*repl.Replica{booted, tailed} {
		for _, n := range []int{1, 3} {
			route("replica "+rep.ID(), shard.Config{
				Stores:   shard.PartitionStores(loaded, n),
				Hook:     primaryDown,
				Replicas: []shard.ReplicaTarget{rep},
			}, true)
		}
	}
}

// TestEvalMatchesServing is the eval-vs-serving contract: fold 0 of the
// bag-of-concepts + Jaccard cross-validation, ranked through a router over
// the fold's trained knowledge base with the bundles' real part IDs, scores
// exactly the accuracies eval.Run reports for that fold.
func TestEvalMatchesServing(t *testing.T) {
	corpus, err := datagen.Generate(datagen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := eval.New(corpus.Taxonomy, corpus.Bundles)
	res, err := e.Run(eval.Variant{Name: "boc-j", Model: kb.BagOfConcepts, Sim: core.Jaccard{}})
	if err != nil {
		t.Fatal(err)
	}
	fold := eval.StratifiedFolds(e.Bundles, e.Folds, e.Seed)[0]
	heldOut := map[int]bool{}
	for _, idx := range fold {
		heldOut[idx] = true
	}
	var train []*bundle.Bundle
	for i, b := range e.Bundles {
		if !heldOut[i] {
			train = append(train, b)
		}
	}
	tk := qatk.New(corpus.Taxonomy) // bag-of-concepts + Jaccard
	mem, err := tk.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	r, err := shard.New(shard.Config{Stores: shard.PartitionStores(mem, 3)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	hits := map[int]int{}
	for _, idx := range fold {
		b := e.Bundles[idx]
		feats, err := tk.Features(b, bundle.TestSources())
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Query(context.Background(), b.PartID, feats)
		if err != nil {
			t.Fatalf("query %s: %v", b.RefNo, err)
		}
		if got.Degraded {
			t.Fatalf("query %s answered degraded", b.RefNo)
		}
		rank := core.Rank(got.Codes, b.ErrorCode)
		for _, k := range e.Ks {
			if rank > 0 && rank <= k {
				hits[k]++
			}
		}
	}
	for _, k := range e.Ks {
		if acc := float64(hits[k]) / float64(len(fold)); acc != res.PerFold[0][k] {
			t.Errorf("accuracy@%d: serving %v, eval %v", k, acc, res.PerFold[0][k])
		}
	}
}
