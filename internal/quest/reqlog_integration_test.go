package quest

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bundle"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/reqlog"
	"repro/internal/reldb"
	"repro/internal/shard"
)

// Tentpole acceptance: one wide event assembled across the whole serving
// path round-trips identically through a GET /debug/bundle response and a
// bundle directory written by a trigger, the incident report rendered from
// either names its trace — and with exemplars enabled the /metrics
// exposition carries the retained request's trace ID.
func TestWideEventEndToEnd(t *testing.T) {
	metrics := obs.NewRegistry()
	reqLog := reqlog.New(reqlog.Config{SampleAll: true, Registry: metrics})
	recorder := flight.New(flight.Config{Dir: t.TempDir(), Registry: metrics, Requests: reqLog})
	t.Cleanup(recorder.Close)

	db, err := reldb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := bundle.CreateTables(db); err != nil {
		t.Fatal(err)
	}
	src := shardKB(t)
	router, err := shard.New(shard.Config{Stores: shard.PartitionStores(src, 4)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	srv, err := NewServer(Config{
		DB: db, Shards: router, Metrics: metrics,
		Flight: recorder, Requests: reqLog, Exemplars: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	part := "P03"
	if !src.KnownPart(part) {
		t.Fatalf("fixture part %s unknown", part)
	}
	var out apiRecommendation
	if code := getJSON(t, ts.URL+"/api/recommend?part="+part+"&features=f01,f05,f11", &out); code != http.StatusOK {
		t.Fatalf("recommend = %d, want 200", code)
	}

	// The live view (what questd mounts at /debug/bundle).
	dbg := httptest.NewServer(recorder.Handler())
	t.Cleanup(dbg.Close)
	resp, err := http.Get(dbg.URL + "/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	live, err := flight.DecodeBundle(resp.Body, dbg.URL)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/bundle = %d, %v; want 200 and a bundle", resp.StatusCode, err)
	}
	events := live.Requests
	if len(events) != 1 {
		t.Fatalf("retained %d events, want 1", len(events))
	}
	ev := events[0]
	if ev.Method != "GET" || ev.Route != "/api/recommend" || ev.Status != http.StatusOK {
		t.Fatalf("event identity = %s %s %d, want GET /api/recommend 200", ev.Method, ev.Route, ev.Status)
	}
	if ev.TraceID == "" || ev.Duration <= 0 {
		t.Fatalf("event missing trace/duration: %+v", ev)
	}
	if ev.Part != part || ev.Features != 3 {
		t.Fatalf("query identity = part=%q features=%d, want %s/3", ev.Part, ev.Features, part)
	}
	stages := map[string]bool{}
	for _, st := range ev.Stages {
		stages[st.Name] = true
	}
	if !stages["score"] || !stages["dedup"] {
		t.Fatalf("stages %v missing score/dedup", ev.Stages)
	}
	// Retrieval, scoring and selection are one pass over the knowledge
	// base's postings, all of it lapped as the score stage.
	if stages["rank"] {
		t.Fatalf("stages %v carry a rank stage", ev.Stages)
	}
	winners := 0
	for _, a := range ev.Shards {
		if a.Winner {
			winners++
			if a.Breaker != shard.StateClosed {
				t.Errorf("winning attempt breaker = %q, want closed", a.Breaker)
			}
		}
	}
	if winners != 1 {
		t.Fatalf("shard attempts %+v: %d winners, want 1", ev.Shards, winners)
	}

	// A triggered bundle directory freezes and round-trips the same event.
	b, err := flight.ReadBundle(recorder.Trigger("test"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Requests, events) {
		t.Fatalf("bundle requests diverge from /debug/bundle:\nbundle: %+v\nlive: %+v", b.Requests, events)
	}

	// The `qatk diagnose` report presents the same event from either source.
	for name, src := range map[string]*flight.Bundle{"url": live, "dir": b} {
		var report bytes.Buffer
		if err := flight.WriteReport(&report, src, false); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(report.String(), "trace="+ev.TraceID) {
			t.Fatalf("%s report lacks trace %s:\n%s", name, ev.TraceID, report.String())
		}
	}

	// The /metrics exposition carries the retained request's trace ID as
	// an OpenMetrics exemplar on a latency bucket.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `# {trace_id="`+ev.TraceID+`"}`) {
		t.Fatalf("/metrics lacks exemplar for trace %s", ev.TraceID)
	}
	if !strings.Contains(string(body), MetricReqExemplarsTotal+" 1") {
		t.Fatalf("/metrics lacks %s 1", MetricReqExemplarsTotal)
	}
}
