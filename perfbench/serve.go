package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/obs/reqlog"
	"repro/internal/qatk"
	"repro/internal/quest"
	"repro/internal/reldb"
	"repro/internal/shard"
)

// The serve-recommend workload drives GET /api/recommend open loop at one
// fixed rate against questd's default serving tier, built in-process: the
// bag-of-concepts knowledge base trained on folds 1-4, persisted to reldb,
// loaded with kb.OpenDB and partitioned into one shard behind the hedging
// router, served by quest.NewServer over a loopback listener. The rate and
// the share of unknown-part queries are cmd/loadgen's defaults (-rps 200,
// about 10% unknown parts).
const (
	serveRate         = 200 // requests per second
	serveScatterEvery = 10  // every 10th query carries an unknown part
	// serveLimit is slo_met_share's latency limit: about 1.7 times the p95
	// of scatter requests (~1.2 ms on a shared 2-vCPU VM), so it reacts when
	// the classifier's scoring of all nodes slows down.
	serveLimit = 2 * time.Millisecond
	questTimeout      = 30 * time.Second // questd's -request-timeout default
)

// wrapHandler wraps the QUEST application outermost, between the listener
// and the server. It is the identity; the meta-tests substitute a handler
// that corrupts responses.
var wrapHandler = func(h http.Handler) http.Handler { return h }

// serveQuery is one recommendation request with its expected answer.
type serveQuery struct {
	path    string
	code    string // the held-out bundle's true error code
	scatter bool
	want    []core.ScoredCode // in-process Recommend over the training KB, cut to SuggestionLimit
}

type serveState struct {
	srv     *httptest.Server
	client  *http.Client
	queries []serveQuery
	store   *timedStore // the kb seam under the shard
	seam    *handlerSeam
	tracer  *obs.Tracer
	reqLog  *reqlog.Log
	layers  setupTimes
}

func runServe(o options) (*report, error) {
	st, release, setup, err := setupMedian(func() (*serveState, func(), error) { return serveSetup(o.seed) })
	if err != nil {
		return nil, err
	}
	defer release()
	rep := newReport()
	rep.set("setup_s", setup)
	rep.set("heap_live_mb", heapLiveMB())
	for name, v := range st.layers {
		rep.set(name, v)
	}

	n := int(o.seconds * serveRate)
	var mu sync.Mutex
	var top1, top10, hedged, scatter, degraded int
	rt := startRuntimeDelta()
	lr := openLoop(n, time.Second/serveRate, runtime.NumCPU(), func(i int) (bool, time.Time) {
		q := &st.queries[i%len(st.queries)]
		rec, err := st.recommend(q)
		answered := time.Now()
		if rec == nil {
			return false, answered
		}
		r := core.Rank(rec.codes(), q.code)
		mu.Lock()
		defer mu.Unlock()
		hedged += b2i(rec.Hedged)
		scatter += b2i(rec.Scatter)
		degraded += b2i(rec.Degraded)
		if err != nil {
			return false, answered
		}
		top1 += b2i(r == 1)
		top10 += b2i(r > 0 && r <= 10)
		return true, answered
	})
	rt.finish(rep)
	for i, ok := range lr.ok {
		rep.check(ok, "recommend request %d (query %d) failed", i, i%len(st.queries))
	}
	ok := float64(lr.okCount())
	lr.report(rep)
	rep.set("slo_met_share", lr.withinShare(lr.latency, serveLimit))
	rep.set("core.acc_at_1", ratio(float64(top1), ok))
	rep.set("acc_at_10", ratio(float64(top10), ok))
	rep.set("shard.hedged_share", ratio(float64(hedged), float64(n)))
	rep.set("shard.scatter_share", ratio(float64(scatter), float64(n)))
	rep.set("shard.degraded_share", ratio(float64(degraded), float64(n)))
	var known, scattered []float64
	for i, l := range lr.latency {
		if st.queries[i%len(st.queries)].scatter {
			scattered = append(scattered, l)
		} else {
			known = append(known, l)
		}
	}
	rep.note("serve-recommend: %d requests at %d/s over %d connections, %d queries", n, serveRate, runtime.NumCPU(), len(st.queries))
	rep.note("  latency, all:     %s", summary(lr.latency))
	rep.note("  latency, known:   %s", summary(known))
	rep.note("  latency, scatter: %s", summary(scattered))
	rep.note("  generator lag:    %s", summary(lr.lag))
	if o.trace {
		st.traced(rep)
	}
	return rep, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// serveSetup builds the serving tier and the query set for one seed.
func serveSetup(seed int64) (*serveState, func(), error) {
	corpus, err := datagen.Generate(corpusConfig(seed))
	if err != nil {
		return nil, nil, err
	}
	bundles := bundle.FilterMultiOccurrence(corpus.Bundles)
	folds := eval.StratifiedFolds(bundles, 5, seed)
	heldOut := make(map[int]bool, len(folds[0]))
	for _, idx := range folds[0] {
		heldOut[idx] = true
	}
	var trainSet []*bundle.Bundle
	for i, b := range bundles {
		if !heldOut[i] {
			trainSet = append(trainSet, b)
		}
	}

	st := &serveState{layers: setupTimes{}}
	tk := qatk.New(corpus.Taxonomy) // bag-of-concepts + Jaccard, qatk's default
	mem, err := train(tk, trainSet, st.layers)
	if err != nil {
		return nil, nil, err
	}
	t := time.Now()
	db, err := reldb.Open("")
	if err != nil {
		return nil, nil, err
	}
	if err := tk.PersistKB(db, mem); err != nil {
		db.Close()
		return nil, nil, err
	}
	st.layers.lap("kb.persist_s", t)
	dbStore, err := kb.OpenDB(db)
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	stores := shard.PartitionStores(dbStore, 1)
	st.store = newTimedStore(stores[0])
	stores[0] = st.store

	metrics := obs.NewRegistry()
	st.tracer = obs.NewTracer(1024)
	st.tracer.Instrument(metrics.Counter(obs.MetricSpanNamesDroppedTotal))
	logger := obs.NewLogger(io.Discard, obs.LevelInfo)
	st.reqLog = reqlog.New(reqlog.Config{Registry: metrics})
	router, err := shard.New(shard.Config{
		Stores:       stores,
		ShardTimeout: shard.DefaultShardTimeout,
		HedgeAfter:   shard.DefaultHedgeAfter,
		Metrics:      metrics,
		Tracer:       st.tracer,
		Logger:       logger,
	})
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	app, err := quest.NewServer(quest.Config{
		DB: db, RequestTimeout: questTimeout,
		Logger: logger, Metrics: metrics, Tracer: st.tracer,
		Shards: router, Requests: st.reqLog,
	})
	if err != nil {
		router.Close()
		db.Close()
		return nil, nil, err
	}
	st.seam = newHandlerSeam(app, st.snapshot)
	st.srv = httptest.NewServer(wrapHandler(st.seam))
	st.client = newClient()
	release := func() {
		st.client.CloseIdleConnections()
		st.srv.Close()
		router.Close()
		db.Close()
	}

	// Queries: the test-source features of the held-out fold in seeded
	// order; every serveScatterEvery-th one asks for a part no shard owns.
	clf := core.New(mem, core.Jaccard{})
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(folds[0]))
	for _, k := range order {
		b := bundles[folds[0][k]]
		feats, err := tk.Features(b, bundle.TestSources())
		if err != nil {
			release()
			return nil, nil, err
		}
		if len(feats) == 0 {
			continue // the API rejects an empty feature list
		}
		q := serveQuery{code: b.ErrorCode}
		part := b.PartID
		if len(st.queries)%serveScatterEvery == 0 {
			part = fmt.Sprintf("UNKNOWN-%d", len(st.queries))
			q.scatter = true
		}
		q.path = "/api/recommend?" + url.Values{"part": {part}, "features": {strings.Join(feats, ",")}}.Encode()
		q.want = clf.Recommend(part, feats)
		if len(q.want) > quest.SuggestionLimit {
			q.want = q.want[:quest.SuggestionLimit]
		}
		st.queries = append(st.queries, q)
	}
	return st, release, nil
}

// recommendation is the /api/recommend envelope.
type recommendation struct {
	Codes []struct {
		Rank  int     `json:"rank"`
		Code  string  `json:"code"`
		Score float64 `json:"score"`
	} `json:"codes"`
	Degraded bool `json:"degraded"`
	Scatter  bool `json:"scatter"`
	Hedged   bool `json:"hedged"`
}

func (r *recommendation) codes() []core.ScoredCode {
	out := make([]core.ScoredCode, len(r.Codes))
	for i, c := range r.Codes {
		out[i] = core.ScoredCode{Code: c.Code, Score: c.Score}
	}
	return out
}

// recommend sends one query and checks the answer against the in-process
// classifier: the same codes with the same scores, in rank order. The
// envelope comes back whenever it parsed, even when the check failed.
func (st *serveState) recommend(q *serveQuery) (*recommendation, error) {
	body, err := st.get(q.path)
	if err != nil {
		return nil, err
	}
	return checkRecommendation(body, q)
}

func (st *serveState) get(path string) ([]byte, error) {
	resp, err := st.client.Get(st.srv.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

func checkRecommendation(body []byte, q *serveQuery) (*recommendation, error) {
	var rec recommendation
	if err := json.Unmarshal(body, &rec); err != nil {
		return nil, err
	}
	if rec.Degraded || rec.Scatter != q.scatter {
		return &rec, fmt.Errorf("envelope degraded=%v scatter=%v, want scatter=%v", rec.Degraded, rec.Scatter, q.scatter)
	}
	if len(rec.Codes) != len(q.want) {
		return &rec, fmt.Errorf("%d codes, want %d", len(rec.Codes), len(q.want))
	}
	for i, c := range rec.Codes {
		if c.Rank != i+1 || c.Code != q.want[i].Code || c.Score != q.want[i].Score {
			return &rec, fmt.Errorf("rank %d: got %s %v, want %s %v", i+1, c.Code, c.Score, q.want[i].Code, q.want[i].Score)
		}
	}
	return &rec, nil
}

// newClient is the load generator's HTTP client: at most one connection
// per CPU.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
}

// snapshot reads the cumulative time of the layers below the QUEST
// handler: the router's query spans, the classifier's score, rank and
// dedup stages from the request log, and the kb seam's Candidates time.
func (st *serveState) snapshot() map[string]time.Duration {
	out := map[string]time.Duration{"kb": time.Duration(st.store.nanos.Load())}
	for _, s := range st.tracer.Stats() {
		if s.Name == "shard.query" {
			out["shard"] = s.Total
		}
	}
	for _, s := range st.reqLog.StageTotals() {
		out[s.Name] = s.Total
	}
	return out
}

// traced sends every query once, one at a time, through the handler seam,
// and splits each request's round trip into layer self times:
//
//	kb    = Candidates inside the shard (the kb seam)
//	core  = score + rank + dedup stages - kb
//	shard = router query span - score - rank - dedup
//	quest = handler span - router query span
//	net   = client round trip - handler span
//
// The residual is the client's own decoding and checking.
func (st *serveState) traced(rep *report) {
	var (
		kbT, coreT        [2]time.Duration // [known, scatter]
		count             [2]int
		shardT, questT    time.Duration
		netT, wall, resid time.Duration
	)
	st.seam.active.Store(true)
	defer st.seam.active.Store(false)
	for i := range st.queries {
		q := &st.queries[i]
		start := time.Now()
		body, err := st.get(q.path)
		roundtrip := time.Since(start)
		rec, seen := st.seam.record()
		if err == nil {
			_, err = checkRecommendation(body, q)
		}
		rep.check(err == nil && seen, "traced recommend query %d: %v", i, err)
		opWall := time.Since(start) - rec.probe
		d := func(name string) time.Duration { return rec.after[name] - rec.before[name] }
		class := b2i(q.scatter)
		stages := d("score") + d("rank") + d("dedup")
		kbT[class] += d("kb")
		coreT[class] += stages - d("kb")
		count[class]++
		shardT += d("shard") - stages
		questT += rec.handler - d("shard")
		netT += roundtrip - rec.probe - rec.handler
		wall += opWall
		resid += opWall - (roundtrip - rec.probe)
	}
	n := time.Duration(len(st.queries))
	mean := func(total time.Duration, k int) float64 { return ratio(us(total), float64(k)) }
	rep.set("kb.candidates_known_us", mean(kbT[0], count[0]))
	rep.set("kb.candidates_scatter_us", mean(kbT[1], count[1]))
	rep.set("core.score_rank_known_us", mean(coreT[0], count[0]))
	rep.set("core.score_rank_scatter_us", mean(coreT[1], count[1]))
	rep.set("shard.self_us", us(shardT/n))
	rep.set("quest.handler_self_us", us(questT/n))
	rep.set("net.roundtrip_self_us", us(netT/n))
	rep.set("trace.wall_us", us(wall/n))
	rep.set("trace.residual_us", us(resid/n))
	layers := kbT[0] + kbT[1] + coreT[0] + coreT[1] + shardT + questT + netT
	rep.note("traced: %d sequential requests (%d scatter), mean wall %.1f us = layers %.1f us + residual %.1f us",
		len(st.queries), count[1], us(wall/n), us(layers/n), us(resid/n))
}
