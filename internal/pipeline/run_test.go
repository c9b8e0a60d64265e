package pipeline

import (
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/cas"
)

func TestProcessRecoversPanicsWithEngineAttribution(t *testing.T) {
	p, _ := New(appendEngine("ok", "A"), EngineFunc{EngineName: "bad", Fn: func(*cas.CAS) error { panic("boom") }})
	err := p.Process(cas.New("d"))
	var ee *EngineError
	if !errors.As(err, &ee) || ee.Engine != "bad" {
		t.Fatalf("err = %v, want *EngineError for \"bad\"", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("err = %v, want wrapped *PanicError with stack", err)
	}
}

func TestRunWrapsDocumentIndexAndID(t *testing.T) {
	boom := errors.New("boom")
	docs := []*cas.CAS{cas.New("a"), cas.New("b"), cas.New("c")}
	docs[1].SetMetadata(MetaDocID, "R000042")
	fail := EngineFunc{EngineName: "f", Fn: func(c *cas.CAS) error {
		if c.Text() == "b" {
			return boom
		}
		return nil
	}}
	p, _ := New(fail)
	reader := &SliceReader{CASes: docs}
	n, err := p.Run(reader, nil)
	if n != 1 || !errors.Is(err, boom) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	var de *DocumentError
	if !errors.As(err, &de) || de.Index != 1 || de.DocID != "R000042" {
		t.Fatalf("err = %v, want *DocumentError{Index: 1, DocID: R000042}", err)
	}

	// SliceReader.Reset allows a second pass over the same documents.
	reader.Reset()
	if c, err := reader.Next(); err != nil || c.Text() != "a" {
		t.Fatalf("after Reset: c=%v err=%v", c, err)
	}
}

func TestRunWithConfigDeadLettersAndReconciles(t *testing.T) {
	boom := errors.New("bad doc")
	var docs []*cas.CAS
	for i := 0; i < 10; i++ {
		c := cas.New(string(rune('a' + i)))
		docs = append(docs, c)
	}
	fail := EngineFunc{EngineName: "f", Fn: func(c *cas.CAS) error {
		if c.Text() == "c" || c.Text() == "g" {
			return boom
		}
		return nil
	}}
	p, _ := New(fail)
	var dead []DeadLetter
	consumed := 0
	stats, err := p.RunWithConfig(context.Background(), &SliceReader{CASes: docs},
		ConsumerFunc(func(*cas.CAS) error { consumed++; return nil }),
		RunConfig{DeadLetter: func(d DeadLetter) error { dead = append(dead, d); return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Read != 10 || stats.Processed != 8 || stats.DeadLettered != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Processed+stats.DeadLettered != stats.Read {
		t.Fatalf("stats do not reconcile: %+v", stats)
	}
	if consumed != 8 {
		t.Fatalf("consumed = %d", consumed)
	}
	if len(dead) != 2 || dead[0].Index != 2 || dead[1].Index != 6 {
		t.Fatalf("dead letters = %+v", dead)
	}
	for _, d := range dead {
		if d.Engine != "f" || !errors.Is(d.Err, boom) || d.CAS == nil {
			t.Fatalf("dead letter missing attribution: %+v", d)
		}
	}
}

func TestRunWithConfigConsumerFailureDeadLetters(t *testing.T) {
	bad := errors.New("sink full")
	p, _ := New(appendEngine("a", "A"))
	var dead []DeadLetter
	stats, err := p.RunWithConfig(
		context.Background(),
		&SliceReader{CASes: []*cas.CAS{cas.New("1"), cas.New("2")}},
		ConsumerFunc(func(c *cas.CAS) error {
			if c.Text() == "1" {
				return bad
			}
			return nil
		}),
		RunConfig{DeadLetter: func(d DeadLetter) error { dead = append(dead, d); return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Processed != 1 || stats.DeadLettered != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(dead) != 1 || dead[0].Engine != "(consumer)" || !errors.Is(dead[0].Err, bad) {
		t.Fatalf("dead = %+v", dead)
	}
}

func TestCircuitBreakerTripsOnConsecutiveFailures(t *testing.T) {
	boom := errors.New("down")
	var docs []*cas.CAS
	for i := 0; i < 20; i++ {
		docs = append(docs, cas.New("d"))
	}
	alwaysFail := EngineFunc{EngineName: "f", Fn: func(*cas.CAS) error { return boom }}
	p, _ := New(alwaysFail)
	dead := 0
	stats, err := p.RunWithConfig(context.Background(), &SliceReader{CASes: docs}, nil,
		RunConfig{
			DeadLetter:  func(DeadLetter) error { dead++; return nil },
			ErrorBudget: 5,
		})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if dead != 5 || stats.DeadLettered != 5 || stats.Read != 5 {
		t.Fatalf("dead=%d stats=%+v", dead, stats)
	}
}

// Regression: the tripped-breaker error used to format the last document
// failure with %v, severing its chain — errors.As could no longer
// extract the *DocumentError for attribution (found by qatklint/errattr).
func TestCircuitBreakerErrorKeepsDocumentChain(t *testing.T) {
	boom := errors.New("down")
	var docs []*cas.CAS
	for i := 0; i < 5; i++ {
		docs = append(docs, cas.New("d"))
	}
	alwaysFail := EngineFunc{EngineName: "f", Fn: func(*cas.CAS) error { return boom }}
	p, _ := New(alwaysFail)
	_, err := p.RunWithConfig(context.Background(), &SliceReader{CASes: docs}, nil,
		RunConfig{
			DeadLetter:  func(DeadLetter) error { return nil },
			ErrorBudget: 3,
		})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	var de *DocumentError
	if !errors.As(err, &de) {
		t.Fatalf("errors.As found no *DocumentError in %v", err)
	}
	if de.Index != 2 {
		t.Errorf("DocumentError.Index = %d, want 2 (the tripping document)", de.Index)
	}
	if !errors.Is(err, boom) {
		t.Errorf("errors.Is lost the root engine error in %v", err)
	}
}

func TestCircuitBreakerResetsOnSuccess(t *testing.T) {
	boom := errors.New("flaky")
	// Alternate fail/ok: consecutive failures never reach the budget.
	i := 0
	e := EngineFunc{EngineName: "f", Fn: func(*cas.CAS) error {
		i++
		if i%2 == 1 {
			return boom
		}
		return nil
	}}
	var docs []*cas.CAS
	for j := 0; j < 12; j++ {
		docs = append(docs, cas.New("d"))
	}
	p, _ := New(e)
	stats, err := p.RunWithConfig(context.Background(), &SliceReader{CASes: docs}, nil,
		RunConfig{DeadLetter: func(DeadLetter) error { return nil }, ErrorBudget: 2})
	if err != nil {
		t.Fatalf("breaker tripped on non-consecutive failures: %v (stats %+v)", err, stats)
	}
	if stats.Processed != 6 || stats.DeadLettered != 6 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestRunWithConfigDeadLetterSinkErrorAborts(t *testing.T) {
	boom := errors.New("bad")
	sinkErr := errors.New("sink broken")
	p, _ := New(EngineFunc{EngineName: "f", Fn: func(*cas.CAS) error { return boom }})
	_, err := p.RunWithConfig(context.Background(), &SliceReader{CASes: []*cas.CAS{cas.New("1")}}, nil,
		RunConfig{DeadLetter: func(DeadLetter) error { return sinkErr }})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v", err)
	}
}

// errReader fails after yielding one document.
type errReader struct{ n int }

func (r *errReader) Next() (*cas.CAS, error) {
	if r.n == 0 {
		r.n++
		return cas.New("ok"), nil
	}
	return nil, errors.New("source offline")
}

func TestReaderErrorsStayFatal(t *testing.T) {
	p, _ := New(appendEngine("a", "A"))
	stats, err := p.RunWithConfig(context.Background(), &errReader{}, nil,
		RunConfig{DeadLetter: func(DeadLetter) error { return nil }})
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want fatal reader error", err)
	}
	if stats.Processed != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}
