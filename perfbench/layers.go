package main

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/bundle"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/qatk"
)

// wrapStore wraps the knowledge base inside the timing wrapper. It is the
// identity; the meta-tests substitute a store that adds a known delay.
var wrapStore = func(s kb.Store) kb.Store { return s }

// timedStore is the seam between the classifier and the knowledge base: it
// times every Candidates call, the kb layer's share of a classification.
type timedStore struct {
	kb.Store
	nanos atomic.Int64
}

func newTimedStore(s kb.Store) *timedStore { return &timedStore{Store: wrapStore(s)} }

// Candidates implements kb.Store.
func (s *timedStore) Candidates(partID string, features []string) []*kb.Node {
	start := time.Now()
	out := s.Store.Candidates(partID, features)
	s.nanos.Add(int64(time.Since(start)))
	return out
}

// take returns the Candidates time accumulated since the last take.
func (s *timedStore) take() time.Duration { return time.Duration(s.nanos.Swap(0)) }

// layerTimes accumulates self time per layer name.
type layerTimes map[string]time.Duration

// since adds the time elapsed since start to layer and returns now, so
// consecutive layers can be timed back to back.
func (lt layerTimes) since(layer string, start time.Time) time.Time {
	now := time.Now()
	lt[layer] += now.Sub(start)
	return now
}

// sum is the total self time over every layer.
func (lt layerTimes) sum() time.Duration {
	var total time.Duration
	for _, d := range lt {
		total += d
	}
	return total
}

// handlerSeam wraps the QUEST server's http.Handler. While active it times
// each request's handler span and snapshots the cumulative layer times
// below it before and after; otherwise it passes requests through. Traced
// passes send one request at a time, so every snapshot delta belongs to
// the request in flight.
type handlerSeam struct {
	next    http.Handler
	probe   func() map[string]time.Duration
	active  atomic.Bool
	records chan seamRecord
}

// seamRecord is one traced request as the seam saw it.
type seamRecord struct {
	handler       time.Duration
	probe         time.Duration // the snapshots' own cost, inside the round trip
	before, after map[string]time.Duration
}

func newHandlerSeam(next http.Handler, probe func() map[string]time.Duration) *handlerSeam {
	return &handlerSeam{next: next, probe: probe, records: make(chan seamRecord, 1)}
}

func (h *handlerSeam) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.active.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	p0 := time.Now()
	rec := seamRecord{before: h.probe()}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	rec.handler = time.Since(start)
	rec.after = h.probe()
	rec.probe = time.Since(p0) - rec.handler
	h.records <- rec
}

// record returns the seam's record of the request just answered; false
// when the request never reached the seam.
func (h *handlerSeam) record() (seamRecord, bool) {
	select {
	case rec := <-h.records:
		return rec, true
	case <-time.After(5 * time.Second):
		return seamRecord{}, false
	}
}

// setupTimes are the set-up steps' times in seconds, by layer name.
type setupTimes map[string]float64

// lap records the time since start under layer and returns now.
func (s setupTimes) lap(layer string, start time.Time) time.Time {
	now := time.Now()
	s[layer] = now.Sub(start).Seconds()
	return now
}

// engineLayers maps the training pipeline's engine spans to layer names.
var engineLayers = map[string]string{
	"engine:tokenizer":         "textproc.tokenize_s",
	"engine:language-detector": "textproc.langdetect_s",
	"engine:concept-annotator": "annotate.annotate_s",
}

// train is `qatk train`'s training run, traced as that command traces it:
// the pipeline's engine spans give the analysis layers' set-up time, and
// qatk.train_s is the rest of the run.
func train(tk *qatk.Toolkit, bundles []*bundle.Bundle, layers setupTimes) (*kb.Memory, error) {
	tr := obs.NewTracer(1)
	start := time.Now()
	mem, _, err := tk.TrainRun(context.Background(), bundles, pipeline.RunConfig{Tracer: tr})
	if err != nil {
		return nil, err
	}
	self := time.Since(start)
	for _, s := range tr.Stats() {
		if layer, ok := engineLayers[s.Name]; ok {
			layers[layer] = s.Total.Seconds()
			self -= s.Total
		}
	}
	layers["qatk.train_s"] = self.Seconds()
	return mem, nil
}
