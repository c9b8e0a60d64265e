package flight

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestReadBundleAcceptsPR5DirectoryBundle: a committed PR 5-era
// directory bundle — written before the requests (PR 8) and profiles
// (PR 10) sections existed — still loads, renders, and survives a
// round-trip through today's single-file writer unchanged, with the newer
// sections absent.
func TestReadBundleAcceptsPR5DirectoryBundle(t *testing.T) {
	b, err := ReadBundle(filepath.Join("testdata", "pr5_bundle"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Schema != 1 || b.Reason != ReasonSLOBreach {
		t.Fatalf("schema/reason = %d/%q", b.Schema, b.Reason)
	}
	if b.Goroutines != 23 || b.Details["p99_seconds"] != "0.5" {
		t.Fatalf("manifest fields lost: goroutines=%d details=%v", b.Goroutines, b.Details)
	}
	if len(b.Spans) != 1 || b.SpanStats[0].Count != 42 {
		t.Fatalf("spans lost: %+v / %+v", b.Spans, b.SpanStats)
	}
	if len(b.Metrics) != 2 || len(b.Logs) != 2 || b.Extras["reldb"]["wal_appends"] != "512" {
		t.Fatalf("sections lost: metrics=%d logs=%d extras=%v", len(b.Metrics), len(b.Logs), b.Extras)
	}
	if b.Requests != nil || b.Profiles != nil {
		t.Fatalf("pre-PR8/PR10 bundle grew newer sections: requests=%v profiles=%v", b.Requests, b.Profiles)
	}

	// Round-trip: re-writing with today's writer and re-reading yields the
	// identical bundle — the old bundle is not mutated by new code.
	path, err := b.writeFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, b2) {
		t.Fatalf("PR5 bundle changed across a write/read round-trip:\n got %+v\nwant %+v", b2, b)
	}

	var report bytes.Buffer
	if err := WriteReport(&report, b, true); err != nil {
		t.Fatal(err)
	}
	out := report.String()
	for _, want := range []string{"SLO_BREACH", "METRIC MOVEMENT", "SUBSYSTEM RELDB", "LOG TAIL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("diagnose report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "PROFILES") {
		t.Fatalf("diagnose invented a profiles section for a PR5 bundle:\n%s", out)
	}
}

// TestReadBundleAcceptsPR8JSONBundle: a committed PR 8-era single-file
// JSON bundle — carrying the requests section but predating profiles —
// loads with its wide events intact and no profiles section.
func TestReadBundleAcceptsPR8JSONBundle(t *testing.T) {
	b, err := ReadBundle(filepath.Join("testdata", "pr8_bundle.json"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Reason != ReasonOnDemand || b.DroppedLogs != 2 {
		t.Fatalf("header fields lost: reason=%q dropped=%d", b.Reason, b.DroppedLogs)
	}
	if len(b.Requests) != 1 {
		t.Fatalf("requests section lost: %+v", b.Requests)
	}
	ev := b.Requests[0]
	if ev.Part != "P-100421" || !ev.Hedged || len(ev.Shards) != 2 || !ev.Shards[1].Winner {
		t.Fatalf("wide event fields lost: %+v", ev)
	}
	if len(ev.Stages) != 2 || ev.Stages[0].Name != "score" {
		t.Fatalf("stage timings lost: %+v", ev.Stages)
	}
	if b.Profiles != nil {
		t.Fatalf("pre-PR10 bundle grew a profiles section: %+v", b.Profiles)
	}

	var report bytes.Buffer
	if err := WriteReport(&report, b, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "ON_DEMAND") {
		t.Fatalf("diagnose report:\n%s", report.String())
	}
}
