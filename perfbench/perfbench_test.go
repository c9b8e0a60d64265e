package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/kb"
)

// smallCorpus runs the workloads on datagen's small corpus for the rest of
// the test.
func smallCorpus(t *testing.T) {
	t.Helper()
	prev := corpusConfig
	corpusConfig = func(seed int64) datagen.Config {
		cfg := datagen.SmallConfig()
		cfg.Seed = seed
		return cfg
	}
	t.Cleanup(func() { corpusConfig = prev })
}

// delayStore adds a fixed busy-wait to every Candidates call.
type delayStore struct {
	kb.Store
	d time.Duration
}

func (s delayStore) Candidates(partID string, features []string) []*kb.Node {
	out := s.Store.Candidates(partID, features)
	for start := time.Now(); time.Since(start) < s.d; {
	}
	return out
}

func withDelay(t *testing.T, d time.Duration) {
	t.Helper()
	prev := wrapStore
	wrapStore = func(s kb.Store) kb.Store { return delayStore{Store: s, d: d} }
	t.Cleanup(func() { wrapStore = prev })
}

func run(t *testing.T, workload string, traced bool) *report {
	t.Helper()
	rep, err := workloads[workload](options{workload: workload, seed: 3, seconds: 0.5, trace: traced})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// A delay injected into every Candidates call must land in the kb layer,
// about one delay per call, and leave the other layers' self times alone.
func TestInjectedCandidatesDelayLandsInKB(t *testing.T) {
	smallCorpus(t)

	t.Run("fig11", func(t *testing.T) {
		const delay = time.Millisecond
		base := run(t, "fig11-boc", true)
		withDelay(t, delay)
		slow := run(t, "fig11-boc", true)
		if base.failed+slow.failed != 0 {
			t.Fatalf("failed ops: %d, %d", base.failed, slow.failed)
		}
		queries := slow.metrics["core.comparisons"] / slow.metrics["kb.candidates_per_query"]
		injected := queries * delay.Seconds()
		got := slow.metrics["kb.candidates_s"] - base.metrics["kb.candidates_s"]
		if got < 0.9*injected || got > 1.5*injected {
			t.Errorf("kb.candidates_s rose by %.4f s, want about %.4f s", got, injected)
		}
		var moved float64
		for _, layer := range []string{"bundle.cas_s", "textproc.tokenize_s", "annotate.annotate_s", "kb.extract_s", "kb.build_s",
			"eval.count_candidates_s", "core.score_rank_s", "core.dedup_s"} {
			moved += math.Abs(slow.metrics[layer] - base.metrics[layer])
		}
		if moved > 0.25*injected {
			t.Errorf("other layers moved by %.4f s in total for %.4f s injected", moved, injected)
		}
	})

	t.Run("serve", func(t *testing.T) {
		const delay = 200 * time.Microsecond
		base := run(t, "serve-recommend", true)
		withDelay(t, delay)
		slow := run(t, "serve-recommend", true)
		if base.failed+slow.failed != 0 {
			t.Fatalf("failed ops: %d, %d", base.failed, slow.failed)
		}
		want := us(delay)
		for _, layer := range []string{"kb.candidates_known_us", "kb.candidates_scatter_us"} {
			got := slow.metrics[layer] - base.metrics[layer]
			if got < 0.9*want || got > 1.5*want {
				t.Errorf("%s rose by %.1f us, want about %.1f us", layer, got, want)
			}
		}
		for _, layer := range []string{"core.score_rank_known_us", "shard.self_us", "quest.handler_self_us", "net.roundtrip_self_us"} {
			if d := math.Abs(slow.metrics[layer] - base.metrics[layer]); d > 0.25*want {
				t.Errorf("%s moved by %.1f us for %.1f us injected", layer, d, want)
			}
		}
	})
}

// corruptNth rewrites the body of the n-th response whose path has the
// given prefix, so that its first suggestion reads as rank 2.
func corruptNth(t *testing.T, prefix string, n int64) {
	t.Helper()
	prev := wrapHandler
	var seen atomic.Int64
	wrapHandler = func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, prefix) || seen.Add(1) != n {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(bytes.Replace(rec.Body.Bytes(), []byte(`"rank":1,`), []byte(`"rank":2,`), 1))
		})
	}
	t.Cleanup(func() { wrapHandler = prev })
}

// A corrupted response must count as a failed op and make the run
// incorrect.
func TestCorruptedResponseCountsAsFailed(t *testing.T) {
	smallCorpus(t)
	for _, tc := range []struct{ workload, path string }{
		{"serve-recommend", "/api/recommend"},
		{"triage", "/api/bundle/"},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			corruptNth(t, tc.path, 3)
			rep := run(t, tc.workload, false)
			if rep.failed != 1 {
				t.Fatalf("failed ops = %d, want 1", rep.failed)
			}
			var res resultOut
			line, err := render(rep, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil || res.Correct {
				t.Fatalf("result %s: correct must be false (%v)", line, err)
			}
		})
	}
}

// Every workload passes its checks on a seed other than 1 and prints every
// end-to-end metric untraced. In the traced run no layer's self time is
// negative, and on the cross-validation workloads the residual the layers
// leave unexplained stays under 5% of the traced wall.
func TestWorkloadsPassAndLayersExplainWall(t *testing.T) {
	smallCorpus(t)
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			rep := run(t, name, false)
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("untraced: %d of %d ops failed", rep.failed, rep.attempted)
			}
			if _, err := render(rep, false); err != nil {
				t.Fatal(err)
			}
			for _, m := range endToEnd {
				if rep.metrics[m.name] <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, rep.metrics[m.name])
				}
			}
			traced := run(t, name, true)
			if traced.failed != 0 {
				t.Fatalf("traced: %d of %d ops failed", traced.failed, traced.attempted)
			}
			checkLayers(t, traced)
		})
	}
}

// checkLayers requires every reported time to be non-negative (a negative
// self time means a seam subtracts more than the span it sits in) and, where
// the wall is in seconds, the residual to stay under 5% of it.
// trace.overhead_s is exempt: it compares two runs, not spans.
func checkLayers(t *testing.T, rep *report) {
	t.Helper()
	for _, m := range perLayer {
		if (m.unit == "s" || m.unit == "us") && m.name != "trace.overhead_s" && rep.metrics[m.name] < 0 {
			t.Errorf("%s = %v, want >= 0", m.name, rep.metrics[m.name])
		}
	}
	if wall := rep.metrics["trace.wall_s"]; wall > 0 {
		if share := rep.metrics["trace.residual_s"] / wall; share >= 0.05 {
			t.Errorf("residual is %.1f%% of the traced wall %.3f s, want under 5%%", 100*share, wall)
		}
	} else if rep.metrics["trace.wall_us"] <= 0 {
		t.Errorf("no traced wall reported")
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := percentile(xs, 0.99); got != 198 {
		t.Errorf("p99 of 1..200 = %v, want 198", got)
	}
	if got := percentile(xs, 0.5); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
