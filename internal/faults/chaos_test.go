package faults

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cas"
	"repro/internal/pipeline"
	"repro/internal/reldb"
)

// makeDocs generates a synthetic collection with unique document IDs.
func makeDocs(n int) []*cas.CAS {
	docs := make([]*cas.CAS, n)
	for i := range docs {
		c := cas.New(fmt.Sprintf("report text %d", i))
		c.SetMetadata(pipeline.MetaDocID, fmt.Sprintf("D%05d", i))
		docs[i] = c
	}
	return docs
}

func markEngine(name string) pipeline.Engine {
	return pipeline.EngineFunc{EngineName: name, Fn: func(c *cas.CAS) error {
		c.SetMetadata("mark:"+name, "1")
		return nil
	}}
}

// TestChaosCollectionRun is the acceptance chaos test: with a 10% injected
// engine error rate (plus occasional panics) over 600 documents, the
// collection run completes, every failed document appears exactly once in
// the dead-letter consumer with engine attribution, and the run statistics
// reconcile (processed + dead-lettered = read).
func TestChaosCollectionRun(t *testing.T) {
	const nDocs = 600
	in := NewInjector(42, Config{ErrorRate: 0.10, PanicRate: 0.02})
	p, err := pipeline.New(
		in.Engine(markEngine("tokenizer")),
		in.Engine(markEngine("langdetect")),
		in.Engine(markEngine("annotator")),
	)
	if err != nil {
		t.Fatal(err)
	}

	engineNames := map[string]bool{"tokenizer": true, "langdetect": true, "annotator": true}
	var dead []pipeline.DeadLetter
	consumed := map[string]bool{}
	stats, err := p.RunWithConfig(
		context.Background(),
		&pipeline.SliceReader{CASes: makeDocs(nDocs)},
		pipeline.ConsumerFunc(func(c *cas.CAS) error {
			consumed[c.Metadata(pipeline.MetaDocID)] = true
			return nil
		}),
		pipeline.RunConfig{
			DeadLetter: func(d pipeline.DeadLetter) error { dead = append(dead, d); return nil },
			// A generous consecutive-failure budget: isolated chaos faults
			// must never trip it at a 12% combined fault rate.
			ErrorBudget: 50,
		})
	if err != nil {
		t.Fatalf("chaos run aborted: %v (stats %v)", err, stats)
	}

	if stats.Read != nDocs {
		t.Fatalf("read %d of %d documents", stats.Read, nDocs)
	}
	if stats.Processed+stats.DeadLettered != stats.Read {
		t.Fatalf("stats do not reconcile: %v", stats)
	}
	if stats.DeadLettered == 0 || stats.DeadLettered != len(dead) {
		t.Fatalf("dead-lettered %d, collected %d", stats.DeadLettered, len(dead))
	}
	// At a ~12% per-doc fault rate over 600 docs the dead-letter count is
	// concentrated far from 0 and far from everything.
	if stats.DeadLettered < nDocs/20 || stats.DeadLettered > nDocs/2 {
		t.Fatalf("implausible dead-letter count %d of %d", stats.DeadLettered, nDocs)
	}

	seen := map[string]bool{}
	for _, d := range dead {
		if d.DocID == "" {
			t.Fatalf("dead letter without document ID: %+v", d)
		}
		if seen[d.DocID] {
			t.Fatalf("document %s dead-lettered twice", d.DocID)
		}
		seen[d.DocID] = true
		if !engineNames[d.Engine] {
			t.Fatalf("dead letter for %s without engine attribution: %q", d.DocID, d.Engine)
		}
		if d.Err == nil || d.CAS == nil {
			t.Fatalf("dead letter for %s missing error or CAS", d.DocID)
		}
		var ie *InjectedError
		var pe *pipeline.PanicError
		if !errors.As(d.Err, &ie) && !errors.As(d.Err, &pe) {
			t.Fatalf("dead letter for %s carries unexpected error: %v", d.DocID, d.Err)
		}
		if consumed[d.DocID] {
			t.Fatalf("document %s both consumed and dead-lettered", d.DocID)
		}
	}
	if len(consumed) != stats.Processed {
		t.Fatalf("consumer saw %d documents, stats say %d", len(consumed), stats.Processed)
	}
}

// TestChaosPersistenceConsumer drives a consumer that writes each document
// into reldb through injected faults: failing inserts dead-letter their
// document, the database keeps exactly the successfully consumed rows.
func TestChaosPersistenceConsumer(t *testing.T) {
	db, err := reldb.Open("") // in-memory
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(reldb.Schema{
		Name: "processed",
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.TInt},
			{Name: "doc", Type: reldb.TString, NotNull: true},
		},
		PrimaryKey: "id",
	}); err != nil {
		t.Fatal(err)
	}

	const nDocs = 500
	in := NewInjector(11, Config{ErrorRate: 0.10})
	p, err := pipeline.New(markEngine("tokenizer"))
	if err != nil {
		t.Fatal(err)
	}
	var dead []pipeline.DeadLetter
	stats, err := p.RunWithConfig(
		context.Background(),
		&pipeline.SliceReader{CASes: makeDocs(nDocs)},
		pipeline.ConsumerFunc(func(c *cas.CAS) error {
			return in.Do("insert", func() error {
				_, err := db.Insert("processed", reldb.Row{nil, c.Metadata(pipeline.MetaDocID)})
				return err
			})
		}),
		pipeline.RunConfig{
			DeadLetter:  func(d pipeline.DeadLetter) error { dead = append(dead, d); return nil },
			ErrorBudget: 50,
		})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.Count("processed")
	if err != nil {
		t.Fatal(err)
	}
	if rows != stats.Processed {
		t.Fatalf("database holds %d rows, stats processed %d", rows, stats.Processed)
	}
	if stats.Processed+stats.DeadLettered != nDocs {
		t.Fatalf("stats do not reconcile: %v", stats)
	}
	for _, d := range dead {
		if d.Engine != "(consumer)" {
			t.Fatalf("persistence failure attributed to %q", d.Engine)
		}
	}
}
