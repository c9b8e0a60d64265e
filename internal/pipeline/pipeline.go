// Package pipeline composes analysis engines into the modular linguistic
// processing pipelines of the QATK (paper §4.4, Fig. 8). Engines receive a
// CAS, fill its layers or metadata, and pass it on; collection processing
// streams CASes from a reader through the engines into a consumer. The
// classification step is an ordinary engine, realizing the extension point
// where different classification algorithms can be plugged in (§4.4).
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"

	"repro/internal/cas"
	"repro/internal/obs"
)

// Engine is one analysis step. Process may mutate the CAS.
type Engine interface {
	Name() string
	Process(c *cas.CAS) error
}

// EngineFunc adapts a function to the Engine interface.
type EngineFunc struct {
	EngineName string
	Fn         func(c *cas.CAS) error
}

// Name returns the engine name.
func (e EngineFunc) Name() string { return e.EngineName }

// Process invokes the wrapped function.
func (e EngineFunc) Process(c *cas.CAS) error { return e.Fn(c) }

// Pipeline runs a fixed sequence of engines.
type Pipeline struct {
	engines []Engine
	// spanNames holds the per-engine trace span names ("engine:<name>"),
	// precomputed so the processing hot path never concatenates strings.
	spanNames []string
}

// New builds a pipeline from the given engines, in order.
func New(engines ...Engine) (*Pipeline, error) {
	if len(engines) == 0 {
		return nil, errors.New("pipeline: no engines")
	}
	seen := make(map[string]bool, len(engines))
	spanNames := make([]string, len(engines))
	for i, e := range engines {
		if e == nil {
			return nil, errors.New("pipeline: nil engine")
		}
		if e.Name() == "" {
			return nil, errors.New("pipeline: engine without name")
		}
		if seen[e.Name()] {
			return nil, fmt.Errorf("pipeline: duplicate engine name %q", e.Name())
		}
		seen[e.Name()] = true
		spanNames[i] = EngineSpanPrefix + e.Name()
	}
	return &Pipeline{engines: engines, spanNames: spanNames}, nil
}

// Engines returns the engine names in execution order.
func (p *Pipeline) Engines() []string {
	names := make([]string, len(p.engines))
	for i, e := range p.engines {
		names[i] = e.Name()
	}
	return names
}

// EngineError attributes a processing failure to the engine that raised it.
type EngineError struct {
	Engine string
	Err    error
}

// Error formats the failure with its engine name.
func (e *EngineError) Error() string {
	return fmt.Sprintf("pipeline: engine %q: %v", e.Engine, e.Err)
}

// Unwrap exposes the underlying engine error.
func (e *EngineError) Unwrap() error { return e.Err }

// PanicError is a recovered engine panic, surfaced as an ordinary error so
// one malformed document cannot take down a whole collection run.
type PanicError struct {
	Value any
	Stack []byte
}

// Error describes the recovered panic value.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// safeProcess runs one engine over one CAS, converting panics to errors.
func safeProcess(e Engine, c *cas.CAS) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return e.Process(c)
}

// Process runs all engines over one CAS. The first engine error aborts the
// document and is returned as an *EngineError naming the engine; a panicking
// engine is recovered and reported the same way (as an *EngineError wrapping
// a *PanicError).
func (p *Pipeline) Process(c *cas.CAS) error {
	return p.process(c, nil, nil)
}

// process is Process with a trace seam: every engine runs under its own
// span (a child of parent) when tr is non-nil. A nil tracer makes every
// span call a no-op, keeping the disabled path allocation-free.
func (p *Pipeline) process(c *cas.CAS, tr *obs.Tracer, parent *obs.Span) error {
	for i, e := range p.engines {
		span := tr.Start(parent, p.spanNames[i])
		err := safeProcess(e, c)
		span.End(err)
		if err != nil {
			return &EngineError{Engine: e.Name(), Err: err}
		}
	}
	return nil
}

// Reader produces CASes for collection processing. Next returns io.EOF
// when the collection is exhausted.
type Reader interface {
	Next() (*cas.CAS, error)
}

// Consumer receives fully processed CASes.
type Consumer interface {
	Consume(c *cas.CAS) error
}

// ConsumerFunc adapts a function to the Consumer interface.
type ConsumerFunc func(c *cas.CAS) error

// Consume invokes the function.
func (f ConsumerFunc) Consume(c *cas.CAS) error { return f(c) }

// Run streams every CAS from r through the pipeline into consumer,
// returning the number of documents processed. The first document failure
// aborts the run, wrapped as a *DocumentError carrying the document index
// (and reference number, when the reader set one); use RunWithConfig for
// fault-isolated collection processing.
func (p *Pipeline) Run(r Reader, consumer Consumer) (int, error) {
	stats, err := p.RunWithConfig(context.Background(), r, consumer, RunConfig{})
	return stats.Processed, err
}

// SliceReader yields a fixed slice of CASes; useful in tests and batch jobs.
type SliceReader struct {
	CASes []*cas.CAS
	pos   int
}

// Next returns the next CAS or io.EOF.
func (r *SliceReader) Next() (*cas.CAS, error) {
	if r.pos >= len(r.CASes) {
		return nil, io.EOF
	}
	c := r.CASes[r.pos]
	r.pos++
	return c, nil
}

// Reset rewinds the reader so the same slice can be streamed again.
func (r *SliceReader) Reset() { r.pos = 0 }
