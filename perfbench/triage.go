package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/obs/reqlog"
	"repro/internal/qatk"
	"repro/internal/quest"
	"repro/internal/reldb"
)

// The triage workload is the quality expert's loop on a durable database:
// open its bundle with the persisted suggestions (GET /api/bundle/{ref}),
// then assign the true error code (POST /api/bundle/{ref}/assign) in a
// logged-in session. One step is that pair. Every pending bundle is
// triaged once, as an expert works through the queue: the steps arrive open
// loop, evenly spread over the measured phase. The set-up is cmd/datagen
// followed by `qatk train` and `qatk classify`, and the server runs with
// questd's defaults.
const (
	// triageLimit is slo_met_share's limit on a whole step, from the step's
	// due time to the assign's answer: about 2 times the step p95 (~1.5 ms
	// on a shared 2-vCPU VM with a virtual disk).
	triageLimit  = 3 * time.Millisecond
	pendingEvery = 20 // cmd/datagen stores every 20th bundle as pending
	pendingSlot  = 7
	expertUser   = "expert"
)

// triageStep is one pending bundle with its true code and the suggestions
// `qatk classify` stored for it.
type triageStep struct {
	ref, code string
	want      []core.ScoredCode
}

type triageState struct {
	srv    *httptest.Server
	client *http.Client
	db     *reldb.DB
	steps  []triageStep
	seam   *handlerSeam
	layers setupTimes
}

func runTriage(o options) (*report, error) {
	if err := os.MkdirAll(tempDir(), 0o755); err != nil {
		return nil, err
	}
	st, release, setup, err := setupMedian(func() (*triageState, func(), error) { return triageSetup(o.seed) })
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

	n := len(st.steps)
	interval := o.budget() / time.Duration(n)
	readErr := make([]error, n)
	writeErr := make([]error, n)
	writeLat := make([]float64, n)
	var mu sync.Mutex
	var top1, top10, reads int
	rt := startRuntimeDelta()
	lr := openLoop(n, interval, runtime.NumCPU(), func(i int) (bool, time.Time) {
		s := &st.steps[i]
		sugg, rerr := st.read(s)
		read := time.Now()
		readErr[i], writeErr[i] = rerr, st.assign(s)
		writeLat[i] = ms(time.Since(read))
		if rerr == nil {
			r := core.Rank(sugg, s.code)
			mu.Lock()
			reads++
			top1 += b2i(r == 1)
			top10 += b2i(r > 0 && r <= 10)
			mu.Unlock()
		}
		return rerr == nil && writeErr[i] == nil, read
	})
	rt.finish(rep)
	for i := 0; i < n; i++ {
		rep.check(readErr[i] == nil, "step %d read: %v", i, readErr[i])
		rep.check(writeErr[i] == nil, "step %d assign: %v", i, writeErr[i])
	}
	st.checkAssigned(rep)
	steps := make([]float64, n)
	for i := range steps {
		steps[i] = lr.latency[i] + writeLat[i]
	}
	lr.report(rep)
	rep.set("slo_met_share", lr.withinShare(steps, triageLimit))
	rep.set("quest.write_p50_ms", percentile(writeLat, 0.50))
	rep.set("quest.write_p95_ms", percentile(writeLat, 0.95))
	rep.set("core.acc_at_1", ratio(float64(top1), float64(reads)))
	rep.set("acc_at_10", ratio(float64(top10), float64(reads)))
	rep.note("triage: %d steps (GET + POST), one per pending bundle, at %.1f/s over %d connections",
		n, float64(time.Second)/float64(interval), runtime.NumCPU())
	rep.note("  read:          %s", summary(lr.latency))
	rep.note("  assign:        %s", summary(writeLat))
	rep.note("  step:          %s", summary(steps))
	rep.note("  generator lag: %s", summary(lr.lag))
	if o.trace {
		// The measured phase triaged the whole queue; the traced pass
		// triages a fresh copy of it.
		fresh, done, err := triageSetup(o.seed)
		if err != nil {
			return nil, err
		}
		defer done()
		fresh.traced(rep)
	}
	return rep, nil
}

// checkAssigned counts one op per assigned bundle: bundle.Load must show
// its assigned code.
func (st *triageState) checkAssigned(rep *report) {
	for _, s := range st.steps {
		b, err := bundle.Load(st.db, s.ref)
		rep.check(err == nil && b.ErrorCode == s.code, "bundle %s: code not persisted (%v)", s.ref, err)
	}
}

// triageSetup runs cmd/datagen's bulk load, then qatk train and classify
// on the durable database, and starts the QUEST server over it.
func triageSetup(seed int64) (*triageState, func(), error) {
	corpus, err := datagen.Generate(corpusConfig(seed))
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(tempDir(), "triage-")
	if err != nil {
		return nil, nil, err
	}
	st := &triageState{layers: setupTimes{}}
	release := func() { os.RemoveAll(dir) }
	fail := func(err error) (*triageState, func(), error) {
		release()
		return nil, nil, err
	}
	truth, err := st.load(dir, corpus)
	if err != nil {
		return fail(err)
	}

	db, err := reldb.OpenWith(dir, reldb.Options{Sync: reldb.SyncAlways})
	if err != nil {
		return fail(err)
	}
	st.db = db
	release = func() { db.Close(); os.RemoveAll(dir) }
	bundles, err := bundle.LoadAll(db)
	if err != nil {
		return fail(err)
	}
	var assigned []*bundle.Bundle
	for _, b := range bundles {
		if b.ErrorCode != "" {
			assigned = append(assigned, b)
		}
	}
	tk := qatk.New(corpus.Taxonomy)
	mem, err := train(tk, bundle.FilterMultiOccurrence(assigned), st.layers)
	if err != nil {
		return fail(err)
	}
	t := time.Now()
	if err := tk.PersistKB(db, mem); err != nil {
		return fail(err)
	}
	t = st.layers.lap("kb.persist_s", t)
	store, err := kb.OpenDB(db)
	if err != nil {
		return fail(err)
	}
	if _, err := tk.ClassifyAndPersist(db, store, bundles); err != nil {
		return fail(err)
	}
	st.layers.lap("qatk.classify_persist_s", t)
	if err := db.Checkpoint(); err != nil {
		return fail(err)
	}

	// Steps: the pending bundles in seeded order.
	rng := rand.New(rand.NewSource(seed))
	var refs []string
	for _, b := range bundles {
		if b.ErrorCode == "" {
			refs = append(refs, b.RefNo)
		}
	}
	for _, k := range rng.Perm(len(refs)) {
		want, err := core.LoadRecommendations(db, refs[k], quest.SuggestionLimit)
		if err != nil {
			return fail(err)
		}
		st.steps = append(st.steps, triageStep{ref: refs[k], code: truth[refs[k]], want: want})
	}

	metrics := obs.NewRegistry()
	tracer := obs.NewTracer(1024)
	tracer.Instrument(metrics.Counter(obs.MetricSpanNamesDroppedTotal))
	app, err := quest.NewServer(quest.Config{
		DB: db, RequestTimeout: questTimeout,
		Logger: obs.NewLogger(io.Discard, obs.LevelInfo), Metrics: metrics, Tracer: tracer,
		Requests: reqlog.New(reqlog.Config{Registry: metrics}),
	})
	if err != nil {
		return fail(err)
	}
	st.seam = newHandlerSeam(app, func() map[string]time.Duration { return nil })
	st.srv = httptest.NewServer(wrapHandler(st.seam))
	st.client = newClient()
	release = func() {
		st.client.CloseIdleConnections()
		st.srv.Close()
		db.Close()
		os.RemoveAll(dir)
	}
	if err := st.login(); err != nil {
		return fail(err)
	}
	return st, release, nil
}

// load is cmd/datagen's database load: every pendingEvery-th bundle is
// stored without its code and final reports, bulk written without fsync,
// then checkpointed. It returns the true code of every pending bundle.
func (st *triageState) load(dir string, corpus *datagen.Corpus) (map[string]string, error) {
	db, err := reldb.OpenWith(dir, reldb.Options{Sync: reldb.SyncNever})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	for _, create := range []func(*reldb.DB) error{
		bundle.CreateTables, core.CreateResultsTable,
		quest.CreateUserTables, quest.CreateCatalogTables, quest.CreateAuditTables,
	} {
		if err := create(db); err != nil {
			return nil, err
		}
	}
	truth := map[string]string{}
	stored := make([]*bundle.Bundle, len(corpus.Bundles))
	for i, b := range corpus.Bundles {
		stored[i] = b
		if i%pendingEvery != pendingSlot {
			continue
		}
		pending := *b
		pending.ErrorCode = ""
		pending.Reports = nil
		for _, r := range b.Reports {
			if r.Source != bundle.SourceFinalOEM && r.Source != bundle.SourceErrorDesc {
				pending.Reports = append(pending.Reports, r)
			}
		}
		stored[i] = &pending
		truth[b.RefNo] = b.ErrorCode
	}
	t := time.Now()
	if err := bundle.StoreAll(db, stored); err != nil {
		return nil, err
	}
	st.layers.lap("bundle.store_all_s", t)
	for _, spec := range corpus.SortedCodes() {
		if err := quest.AddCode(db, quest.CatalogEntry{
			Code: spec.Code, PartID: spec.PartID,
			Description: fmt.Sprintf("standardized description of %s", spec.Code),
		}); err != nil {
			return nil, err
		}
	}
	if _, err := quest.AddUser(db, "admin", quest.RoleAdmin); err != nil {
		return nil, err
	}
	if _, err := quest.AddUser(db, expertUser, quest.RoleExpert); err != nil {
		return nil, err
	}
	return truth, db.Checkpoint()
}

// login opens the expert's session; the client keeps its cookie.
func (st *triageState) login() error {
	jar, err := cookiejar.New(nil)
	if err != nil {
		return err
	}
	st.client.Jar = jar
	st.client.CheckRedirect = func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }
	resp, err := st.client.PostForm(st.srv.URL+"/login", url.Values{"name": {expertUser}})
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther {
		return fmt.Errorf("login: status %d", resp.StatusCode)
	}
	return nil
}

// read opens a bundle and checks it against the stored suggestions.
func (st *triageState) read(s *triageStep) ([]core.ScoredCode, error) {
	resp, err := st.client.Get(st.srv.URL + "/api/bundle/" + s.ref)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return checkBundle(body, s)
}

func checkBundle(body []byte, s *triageStep) ([]core.ScoredCode, error) {
	var b struct {
		RefNo       string `json:"ref_no"`
		Suggestions []struct {
			Rank  int     `json:"rank"`
			Code  string  `json:"code"`
			Score float64 `json:"score"`
		} `json:"suggestions"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, err
	}
	if b.RefNo != s.ref || len(b.Suggestions) != len(s.want) {
		return nil, fmt.Errorf("bundle %s: got %s with %d suggestions, want %d", s.ref, b.RefNo, len(b.Suggestions), len(s.want))
	}
	out := make([]core.ScoredCode, len(b.Suggestions))
	for i, sg := range b.Suggestions {
		if sg.Rank != i+1 || sg.Code != s.want[i].Code || sg.Score != s.want[i].Score {
			return nil, fmt.Errorf("bundle %s rank %d: got %s, want %s", s.ref, i+1, sg.Code, s.want[i].Code)
		}
		out[i] = core.ScoredCode{Code: sg.Code, Score: sg.Score}
	}
	return out, nil
}

// assign posts the true code and checks the confirmation.
func (st *triageState) assign(s *triageStep) error {
	payload, _ := json.Marshal(map[string]string{"code": s.code})
	resp, err := st.client.Post(st.srv.URL+"/api/bundle/"+s.ref+"/assign", "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	var got map[string]string
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &got) != nil ||
		got["ref_no"] != s.ref || got["error_code"] != s.code {
		return fmt.Errorf("assign %s: status %d body %s", s.ref, resp.StatusCode, body)
	}
	return nil
}

// traced walks every pending bundle once, one step at a time, through the
// handler seam. The storage calls inside the handlers have no seam, so the
// traced pass times the same public calls on the same database and inputs
// right beside each request and subtracts them from the handler span:
//
//	read self  = GET handler span  - bundle.Load - core.LoadRecommendations
//	write self = POST handler span - quest.GetUser - bundle.SetErrorCode
//	             - core.LoadRecommendations - quest.RecordAssignment
//	net        = both client round trips - both handler spans
//
// All values are per step; the residual is the client's decoding and
// checking.
func (st *triageState) traced(rep *report) {
	lt := layerTimes{}
	st.seam.active.Store(true)
	defer st.seam.active.Store(false)
	var wall, roundtrips, readRecs time.Duration
	for _, s := range st.steps {
		t := time.Now()
		_, err := bundle.Load(st.db, s.ref)
		t = lt.since("bundle.load_us", t)
		if err == nil {
			_, err = core.LoadRecommendations(st.db, s.ref, quest.SuggestionLimit)
			readRecs += time.Since(t)
		}
		rep.check(err == nil, "traced read replay %s: %v", s.ref, err)

		start := time.Now()
		_, rerr := st.read(&s)
		readRT := time.Since(start)
		rrec, rseen := st.seam.record()
		mid := time.Now()
		werr := st.assign(&s)
		writeRT := time.Since(mid)
		wrec, wseen := st.seam.record()
		wall += time.Since(start) - rrec.probe - wrec.probe
		roundtrips += readRT + writeRT - rrec.probe - wrec.probe
		rep.check(rerr == nil && rseen, "traced read %s: %v", s.ref, rerr)
		rep.check(werr == nil && wseen, "traced assign %s: %v", s.ref, werr)
		lt["net.roundtrip_self_us"] += readRT + writeRT - rrec.probe - wrec.probe - rrec.handler - wrec.handler
		lt["quest.read_handler_self_us"] += rrec.handler
		lt["quest.write_handler_self_us"] += wrec.handler

		t = time.Now()
		_, _, err = quest.GetUser(st.db, expertUser)
		t = lt.since("quest.get_user_us", t)
		if err == nil {
			err = bundle.SetErrorCode(st.db, s.ref, s.code)
			t = lt.since("bundle.set_code_us", t)
		}
		if err == nil {
			_, err = core.LoadRecommendations(st.db, s.ref, quest.SuggestionLimit)
			t = lt.since("core.load_recs_us", t)
		}
		if err == nil {
			err = quest.RecordAssignment(st.db, quest.AuditEntry{RefNo: s.ref, Code: s.code, User: expertUser, Source: "suggestion", At: time.Now()})
			lt.since("quest.record_assignment_us", t)
		}
		rep.check(err == nil, "traced write replay %s: %v", s.ref, err)
	}
	// The replayed calls ran outside the handlers; take their time out of
	// the handler spans they stand for.
	lt["quest.read_handler_self_us"] -= lt["bundle.load_us"] + readRecs
	lt["quest.write_handler_self_us"] -= lt["quest.get_user_us"] + lt["bundle.set_code_us"] +
		lt["core.load_recs_us"] + lt["quest.record_assignment_us"]
	lt["core.load_recs_us"] += readRecs

	n := time.Duration(len(st.steps))
	for name, d := range lt {
		rep.set(name, us(d/n))
	}
	rep.set("trace.wall_us", us(wall/n))
	rep.set("trace.residual_us", us((wall-roundtrips)/n))
	rep.note("traced: %d sequential steps, mean wall %.1f us = layers %.1f us + residual %.1f us",
		len(st.steps), us(wall/n), us(lt.sum()/n), us((wall-roundtrips)/n))
}
