package quest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/kb"
	"repro/internal/reldb"
	"repro/internal/shard"
)

// Satellite: /readyz per-shard health and the /api/recommend envelope over
// a live shard router.

// shardKB synthesizes a deterministic knowledge base for the router.
func shardKB(t *testing.T) *kb.Memory {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	m := kb.NewMemory()
	for i := 0; i < 200; i++ {
		part := fmt.Sprintf("P%02d", rng.Intn(12))
		code := fmt.Sprintf("E%02d", rng.Intn(9))
		n := 3 + rng.Intn(4)
		set := map[string]bool{}
		for len(set) < n {
			set[fmt.Sprintf("f%02d", rng.Intn(30))] = true
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

// shardedServer stands up a QUEST instance with a 4-shard router, the
// given fault hook wired in.
func shardedServer(t *testing.T, hook shard.FaultHook) (*httptest.Server, *kb.Memory, *shard.Router) {
	t.Helper()
	db, err := reldb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := bundle.CreateTables(db); err != nil {
		t.Fatal(err)
	}
	src := shardKB(t)
	router, err := shard.New(shard.Config{
		Stores: shard.PartitionStores(src, 4),
		Hook:   hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	srv, err := NewServer(Config{DB: db, Shards: router})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, src, router
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestReadyzReportsShards(t *testing.T) {
	ts, _, _ := shardedServer(t, nil)
	var rd struct {
		Status  string              `json:"status"`
		Serving string              `json:"serving"`
		Shards  []shard.ShardHealth `json:"shards"`
	}
	if code := getJSON(t, ts.URL+"/readyz", &rd); code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", code)
	}
	if rd.Status != "ok" || rd.Serving != "ok" {
		t.Fatalf("status=%q serving=%q, want ok/ok", rd.Status, rd.Serving)
	}
	if len(rd.Shards) != 4 {
		t.Fatalf("shards = %d entries, want 4", len(rd.Shards))
	}
	for i, h := range rd.Shards {
		if h.ID != i || h.State != shard.StateClosed || h.LastError != "" {
			t.Errorf("shard %d health = %+v, want closed and error-free", i, h)
		}
	}
}

func TestReadyzReportsBrokenShard(t *testing.T) {
	// Every sub-query to shard 2 fails; querying its parts until the
	// breaker budget is exhausted must surface through /readyz: serving
	// "degraded", shard 2 open with its last error.
	ts, src, router := shardedServer(t, faults.ShardHook(map[int]faults.ShardFault{
		2: {Mode: faults.ShardError},
	}))
	victimParts := []string{}
	for p := 0; p < 12; p++ {
		part := fmt.Sprintf("P%02d", p)
		if src.KnownPart(part) && kb.PartOwner(part, 4) == 2 {
			victimParts = append(victimParts, part)
		}
	}
	if len(victimParts) == 0 {
		t.Fatal("fixture has no parts owned by shard 2")
	}
	for i := 0; i < shard.DefaultBreakerBudget; i++ {
		var out apiRecommendation
		u := ts.URL + "/api/recommend?part=" + url.QueryEscape(victimParts[0]) + "&features=f01,f02,f03"
		if code := getJSON(t, u, &out); code != http.StatusOK {
			t.Fatalf("recommend %d = %d, want 200 (degraded, not failed)", i, code)
		}
		if !out.Degraded {
			t.Fatalf("recommend %d not degraded with owner erroring", i)
		}
	}
	if !router.Degraded() {
		t.Fatal("router not degraded after breaker budget")
	}

	var rd struct {
		Status  string              `json:"status"`
		Serving string              `json:"serving"`
		Shards  []shard.ShardHealth `json:"shards"`
	}
	if code := getJSON(t, ts.URL+"/readyz", &rd); code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200 (degraded serving stays ready)", code)
	}
	if rd.Status != "ok" || rd.Serving != "degraded" {
		t.Fatalf("status=%q serving=%q, want ok/degraded", rd.Status, rd.Serving)
	}
	if rd.Shards[2].State != shard.StateOpen {
		t.Errorf("shard 2 state = %q, want open", rd.Shards[2].State)
	}
	if rd.Shards[2].LastError == "" {
		t.Error("shard 2 last_error empty, want the injected error")
	}
}

func TestAPIRecommend(t *testing.T) {
	ts, src, _ := shardedServer(t, nil)
	part := "P03"
	if !src.KnownPart(part) {
		t.Fatalf("fixture part %s unknown", part)
	}
	feats := []string{"f01", "f05", "f11"}

	var out apiRecommendation
	u := ts.URL + "/api/recommend?part=" + part + "&features=f01,f05&features=f11"
	if code := getJSON(t, u, &out); code != http.StatusOK {
		t.Fatalf("recommend = %d, want 200", code)
	}
	if out.Degraded || out.Scatter {
		t.Fatalf("degraded=%v scatter=%v, want false/false", out.Degraded, out.Scatter)
	}
	want := core.New(src, core.Jaccard{}).Recommend(part, feats)
	limit := len(want)
	if limit > SuggestionLimit {
		limit = SuggestionLimit
	}
	if len(out.Codes) != limit {
		t.Fatalf("codes = %d entries, want %d", len(out.Codes), limit)
	}
	for i, c := range out.Codes {
		if c.Code != want[i].Code || c.Rank != i+1 {
			t.Errorf("rank %d: got %s, want %s", i+1, c.Code, want[i].Code)
		}
	}

	// Unknown part: the scatter fallback, still a 200 envelope.
	if code := getJSON(t, ts.URL+"/api/recommend?part=PXX&features=f01", &out); code != http.StatusOK {
		t.Fatalf("scatter recommend = %d, want 200", code)
	}
	if !out.Scatter || out.Degraded {
		t.Fatalf("scatter=%v degraded=%v, want true/false", out.Scatter, out.Degraded)
	}

	// Parameter validation.
	resp, err := http.Get(ts.URL + "/api/recommend?features=f01")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing part = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/api/recommend?part=P03")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing features = %d, want 400", resp.StatusCode)
	}
}

// TestAPIRecommendFeatureSet: the features parameter is a set. A repeated
// feature counts once (the classifier takes the query size from the
// feature count, so a duplicate would lower every Jaccard score), and more
// than maxRecommendFeatures distinct features are refused with 400.
func TestAPIRecommendFeatureSet(t *testing.T) {
	ts, src, _ := shardedServer(t, nil)
	part := "P03"
	want := core.New(src, core.Jaccard{}).Recommend(part, []string{"f01", "f05"})
	var out apiRecommendation
	if code := getJSON(t, ts.URL+"/api/recommend?part="+part+"&features=f01,f05,f01&features=f05", &out); code != http.StatusOK {
		t.Fatalf("recommend = %d, want 200", code)
	}
	if len(out.Codes) == 0 {
		t.Fatal("no codes")
	}
	for i, c := range out.Codes {
		if c.Code != want[i].Code || c.Score != want[i].Score {
			t.Errorf("rank %d: got %s %v, want %s %v", i+1, c.Code, c.Score, want[i].Code, want[i].Score)
		}
	}

	feats := make([]string, maxRecommendFeatures+1)
	for i := range feats {
		feats[i] = fmt.Sprintf("g%d", i)
	}
	for _, tc := range []struct {
		features string
		code     int
	}{
		{strings.Join(feats[:maxRecommendFeatures], ",") + ",g0", http.StatusOK},
		{strings.Join(feats, ","), http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + "/api/recommend?part=" + part + "&features=" + tc.features)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%d features = %d, want %d", strings.Count(tc.features, ",")+1, resp.StatusCode, tc.code)
		}
	}
}

func TestAPIRecommendDisabled(t *testing.T) {
	db, err := reldb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := bundle.CreateTables(db); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/api/recommend?part=P1&features=f1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("recommend without router = %d, want 404", resp.StatusCode)
	}
	// And /readyz omits the shards section entirely.
	var rd map[string]any
	if code := getJSON(t, ts.URL+"/readyz", &rd); code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", code)
	}
	if _, ok := rd["shards"]; ok {
		t.Error("/readyz reports shards without a router")
	}
	if _, ok := rd["serving"]; ok {
		t.Error("/readyz reports serving without a router")
	}
}

// TestReadyzBreakerArc drives one shard's breaker through its full
// recovery arc — closed → open → half-open probe → closed — entirely over
// HTTP, asserting each state through /readyz. The router runs on an
// injectable clock so the cooldown elapses deterministically, and the
// fault hook heals on command so the half-open probe succeeds.
func TestReadyzBreakerArc(t *testing.T) {
	var clockMu sync.Mutex
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return now }
	advance := func(d time.Duration) { clockMu.Lock(); now = now.Add(d); clockMu.Unlock() }

	var failing atomic.Bool
	failing.Store(true)
	hook := func(ctx context.Context, sh, attempt int) error {
		if sh == 2 && failing.Load() {
			return errors.New("injected: shard 2 down")
		}
		return nil
	}

	db, err := reldb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := bundle.CreateTables(db); err != nil {
		t.Fatal(err)
	}
	src := shardKB(t)
	cooldown := time.Second
	router, err := shard.New(shard.Config{
		Stores:          shard.PartitionStores(src, 4),
		Hook:            hook,
		BreakerBudget:   1,
		BreakerCooldown: cooldown,
		Clock:           clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	srv, err := NewServer(Config{DB: db, Shards: router})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	var victim string
	for p := 0; p < 12; p++ {
		part := fmt.Sprintf("P%02d", p)
		if src.KnownPart(part) && kb.PartOwner(part, 4) == 2 {
			victim = part
			break
		}
	}
	if victim == "" {
		t.Fatal("fixture has no parts owned by shard 2")
	}

	shardState := func() (serving, state string) {
		t.Helper()
		var rd struct {
			Serving string              `json:"serving"`
			Shards  []shard.ShardHealth `json:"shards"`
		}
		if code := getJSON(t, ts.URL+"/readyz", &rd); code != http.StatusOK {
			t.Fatalf("/readyz = %d, want 200", code)
		}
		if len(rd.Shards) != 4 {
			t.Fatalf("shards = %d entries, want 4", len(rd.Shards))
		}
		return rd.Serving, rd.Shards[2].State
	}
	recommend := func() apiRecommendation {
		t.Helper()
		var out apiRecommendation
		u := ts.URL + "/api/recommend?part=" + url.QueryEscape(victim) + "&features=f01,f02,f03"
		if code := getJSON(t, u, &out); code != http.StatusOK {
			t.Fatalf("recommend = %d, want 200", code)
		}
		return out
	}

	// 1. Closed: healthy report before any traffic.
	if serving, state := shardState(); serving != "ok" || state != shard.StateClosed {
		t.Fatalf("initial serving=%q shard2=%q, want ok/closed", serving, state)
	}

	// 2. One failed sub-query exhausts the budget of 1: closed → open.
	if out := recommend(); !out.Degraded {
		t.Fatal("query against downed owner not degraded")
	}
	if serving, state := shardState(); serving != "degraded" || state != shard.StateOpen {
		t.Fatalf("post-trip serving=%q shard2=%q, want degraded/open", serving, state)
	}

	// 3. Cooldown elapses on the injected clock: /readyz resolves the
	// breaker as half-open (what Allow would grant next) without traffic.
	advance(cooldown)
	if _, state := shardState(); state != shard.StateHalfOpen {
		t.Fatalf("post-cooldown shard2=%q, want half-open", state)
	}

	// 4. Shard heals; the next query is the half-open probe and closes
	// the breaker: half-open → closed, response no longer degraded.
	failing.Store(false)
	if out := recommend(); out.Degraded {
		t.Fatal("probe query still degraded after shard healed")
	}
	if serving, state := shardState(); serving != "ok" || state != shard.StateClosed {
		t.Fatalf("recovered serving=%q shard2=%q, want ok/closed", serving, state)
	}

	// And the re-open branch: a failed probe sends half-open back to open.
	failing.Store(true)
	if out := recommend(); !out.Degraded {
		t.Fatal("query against re-downed owner not degraded")
	}
	advance(cooldown)
	if _, state := shardState(); state != shard.StateHalfOpen {
		t.Fatalf("second cooldown shard2=%q, want half-open", state)
	}
	if out := recommend(); !out.Degraded {
		t.Fatal("failed probe should leave the response degraded")
	}
	if _, state := shardState(); state != shard.StateOpen {
		t.Fatalf("after failed probe shard2=%q, want open (re-opened)", state)
	}
}

// fakeReplicaTarget is a settable shard.ReplicaTarget serving the full
// knowledge base — enough to drive /readyz's replica section and the
// router's rescue path without a live replication link.
type fakeReplicaTarget struct {
	id    string
	store *kb.Memory

	mu  sync.Mutex
	lag time.Duration
	gen uint64
}

func (f *fakeReplicaTarget) ID() string        { return f.id }
func (f *fakeReplicaTarget) Ready() bool       { return f.store != nil }
func (f *fakeReplicaTarget) Store() *kb.Memory { return f.store }
func (f *fakeReplicaTarget) ApplyLag() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lag
}
func (f *fakeReplicaTarget) Generation() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}
func (f *fakeReplicaTarget) setLag(d time.Duration) {
	f.mu.Lock()
	f.lag = d
	f.mu.Unlock()
}

// TestReadyzReplicaSection covers the /readyz replica section and the
// breaker arc it coexists with: a fresh and a lagging replica are both
// reported with their apply positions and staleness verdicts; a downed
// owner shard is rescued by the fresh replica (envelope replica:true,
// stale:false) while its breaker walks closed → open → half-open on the
// injected clock; with only stale replicas left the rescue is flagged
// stale:true; and healing the shard closes the breaker again.
func TestReadyzReplicaSection(t *testing.T) {
	var clockMu sync.Mutex
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return now }
	advance := func(d time.Duration) { clockMu.Lock(); now = now.Add(d); clockMu.Unlock() }

	var failing atomic.Bool
	failing.Store(true)
	hook := func(ctx context.Context, sh, attempt int) error {
		if sh == 2 && failing.Load() {
			return errors.New("injected: shard 2 down")
		}
		return nil
	}

	db, err := reldb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := bundle.CreateTables(db); err != nil {
		t.Fatal(err)
	}
	src := shardKB(t)
	fresh := &fakeReplicaTarget{id: "r0", store: src, lag: time.Millisecond, gen: 3}
	stale := &fakeReplicaTarget{id: "r1", store: src, lag: 10 * time.Second, gen: 2}
	cooldown := time.Second
	router, err := shard.New(shard.Config{
		Stores:          shard.PartitionStores(src, 4),
		Hook:            hook,
		BreakerBudget:   1,
		BreakerCooldown: cooldown,
		Clock:           clock,
		Replicas:        []shard.ReplicaTarget{fresh, stale},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	srv, err := NewServer(Config{DB: db, Shards: router})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	var victim string
	for p := 0; p < 12; p++ {
		part := fmt.Sprintf("P%02d", p)
		if src.KnownPart(part) && kb.PartOwner(part, 4) == 2 {
			victim = part
			break
		}
	}
	if victim == "" {
		t.Fatal("fixture has no parts owned by shard 2")
	}

	type readyzView struct {
		Serving  string                `json:"serving"`
		Shards   []shard.ShardHealth   `json:"shards"`
		Replicas []shard.ReplicaHealth `json:"replicas"`
	}
	readyz := func() readyzView {
		t.Helper()
		var rd readyzView
		if code := getJSON(t, ts.URL+"/readyz", &rd); code != http.StatusOK {
			t.Fatalf("/readyz = %d, want 200", code)
		}
		return rd
	}
	recommend := func() apiRecommendation {
		t.Helper()
		var out apiRecommendation
		u := ts.URL + "/api/recommend?part=" + url.QueryEscape(victim) + "&features=f01,f02,f03"
		if code := getJSON(t, u, &out); code != http.StatusOK {
			t.Fatalf("recommend = %d, want 200", code)
		}
		return out
	}

	// 1. Closed, and the replica section reports both apply positions.
	rd := readyz()
	if rd.Serving != "ok" || rd.Shards[2].State != shard.StateClosed {
		t.Fatalf("initial serving=%q shard2=%q, want ok/closed", rd.Serving, rd.Shards[2].State)
	}
	if len(rd.Replicas) != 2 {
		t.Fatalf("replicas = %d entries, want 2", len(rd.Replicas))
	}
	r0, r1 := rd.Replicas[0], rd.Replicas[1]
	if r0.ID != "r0" || !r0.Ready || r0.Stale || r0.LastAppliedGeneration != 3 {
		t.Fatalf("fresh replica health = %+v, want ready, non-stale, gen 3", r0)
	}
	if r0.ApplyLagSeconds <= 0 || r0.ApplyLagSeconds > 0.5 {
		t.Fatalf("fresh replica apply_lag_seconds = %v, want ~0.001", r0.ApplyLagSeconds)
	}
	if r1.ID != "r1" || !r1.Stale || r1.LastAppliedGeneration != 2 {
		t.Fatalf("lagging replica health = %+v, want stale, gen 2", r1)
	}

	// 2. The downed owner is rescued by the fresh replica: not degraded,
	// replica:true stale:false — but the primary failure still trips the
	// budget-1 breaker: closed → open.
	out := recommend()
	if out.Degraded || !out.Replica || out.Stale {
		t.Fatalf("rescued envelope degraded=%v replica=%v stale=%v, want false/true/false",
			out.Degraded, out.Replica, out.Stale)
	}
	rd = readyz()
	if rd.Serving != "degraded" || rd.Shards[2].State != shard.StateOpen {
		t.Fatalf("post-trip serving=%q shard2=%q, want degraded/open", rd.Serving, rd.Shards[2].State)
	}
	if len(rd.Replicas) != 2 {
		t.Fatalf("replica section lost while degraded: %d entries", len(rd.Replicas))
	}

	// 3. Cooldown elapses on the injected clock: half-open, no traffic.
	advance(cooldown)
	if rd = readyz(); rd.Shards[2].State != shard.StateHalfOpen {
		t.Fatalf("post-cooldown shard2=%q, want half-open", rd.Shards[2].State)
	}

	// 4. The fresh replica falls behind too: the failed half-open probe is
	// rescued by a stale replica, flagged in the envelope.
	fresh.setLag(10 * time.Second)
	out = recommend()
	if out.Degraded || !out.Replica || !out.Stale {
		t.Fatalf("stale rescue envelope degraded=%v replica=%v stale=%v, want false/true/true",
			out.Degraded, out.Replica, out.Stale)
	}
	if rd = readyz(); rd.Replicas[0].Stale != true {
		t.Fatalf("replica r0 not reported stale after lag grew: %+v", rd.Replicas[0])
	}

	// 5. Shard heals; the next half-open probe closes the breaker and the
	// answer comes from the primary again.
	failing.Store(false)
	advance(cooldown)
	out = recommend()
	if out.Degraded || out.Replica || out.Stale {
		t.Fatalf("healed envelope degraded=%v replica=%v stale=%v, want all false",
			out.Degraded, out.Replica, out.Stale)
	}
	rd = readyz()
	if rd.Serving != "ok" || rd.Shards[2].State != shard.StateClosed {
		t.Fatalf("recovered serving=%q shard2=%q, want ok/closed", rd.Serving, rd.Shards[2].State)
	}
}
