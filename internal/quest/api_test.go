package quest

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/bundle"
)

func decodeJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestAPIBundleList(t *testing.T) {
	ts, _ := testServer(t)
	c := client(t, ts, "")
	resp, err := c.Get(ts.URL + "/api/bundles")
	if err != nil {
		t.Fatal(err)
	}
	var list []map[string]any
	decodeJSON(t, resp, &list)
	if len(list) != 1 || list[0]["ref_no"] != "R001" || list[0]["part_id"] != "P1" {
		t.Fatalf("list = %v", list)
	}
}

func TestAPIBundleDetail(t *testing.T) {
	ts, _ := testServer(t)
	c := client(t, ts, "")
	resp, err := c.Get(ts.URL + "/api/bundle/R001")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		RefNo       string            `json:"ref_no"`
		Reports     map[string]string `json:"reports"`
		Suggestions []struct {
			Rank  int     `json:"rank"`
			Code  string  `json:"code"`
			Score float64 `json:"score"`
		} `json:"suggestions"`
	}
	decodeJSON(t, resp, &b)
	if b.RefNo != "R001" || b.Reports["mechanic"] == "" {
		t.Fatalf("bundle = %+v", b)
	}
	if len(b.Suggestions) != 2 || b.Suggestions[0].Code != "E1" || b.Suggestions[0].Rank != 1 {
		t.Fatalf("suggestions = %v", b.Suggestions)
	}
	// Missing bundle → 404 with error JSON.
	resp, err = c.Get(ts.URL + "/api/bundle/NOPE")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing bundle status %d", resp.StatusCode)
	}
}

func TestAPIAssign(t *testing.T) {
	ts, db := testServer(t)
	// Unauthorized without session.
	anon := client(t, ts, "")
	resp, err := anon.Post(ts.URL+"/api/bundle/R001/assign", "application/json",
		bytes.NewBufferString(`{"code":"E2"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anon assign status %d", resp.StatusCode)
	}
	// With session.
	bob := client(t, ts, "bob")
	resp, err = bob.Post(ts.URL+"/api/bundle/R001/assign", "application/json",
		bytes.NewBufferString(`{"code":"E2"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assign status %d", resp.StatusCode)
	}
	b, _ := bundle.Load(db, "R001")
	if b.ErrorCode != "E2" {
		t.Fatalf("code = %q", b.ErrorCode)
	}
	// Bad body.
	resp, err = bob.Post(ts.URL+"/api/bundle/R001/assign", "application/json",
		bytes.NewBufferString(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status %d", resp.StatusCode)
	}
}

// An assign body over maxBodyBytes is refused and the bundle keeps its
// code: with 413 before the handler runs when the length is declared, and
// by the capped reader when it is not.
func TestAPIAssignOversizeBody(t *testing.T) {
	ts, db := testServer(t)
	before, err := bundle.Load(db, "R001")
	if err != nil {
		t.Fatal(err)
	}
	bob := client(t, ts, "bob")
	big := `{"code":"` + strings.Repeat("X", maxBodyBytes) + `"}`
	for _, c := range []struct {
		name string
		body io.Reader
		want int
	}{
		{"declared length", strings.NewReader(big), http.StatusRequestEntityTooLarge},
		{"chunked", io.MultiReader(strings.NewReader(big)), http.StatusBadRequest},
	} {
		resp, err := bob.Post(ts.URL+"/api/bundle/R001/assign", "application/json", c.body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
		if b, _ := bundle.Load(db, "R001"); b.ErrorCode != before.ErrorCode {
			t.Fatalf("%s: oversize assign stored a code of length %d", c.name, len(b.ErrorCode))
		}
	}
}

func TestAPICompare(t *testing.T) {
	ts, _ := testServer(t)
	c := client(t, ts, "")
	resp, err := c.Get(ts.URL + "/api/compare")
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]struct {
		Source string `json:"source"`
		Total  int    `json:"total"`
		Top    []struct {
			Code     string  `json:"code"`
			Fraction float64 `json:"fraction"`
		} `json:"top"`
	}
	decodeJSON(t, resp, &out)
	if out["internal"].Total != 8 || len(out["internal"].Top) == 0 {
		t.Fatalf("internal = %+v", out["internal"])
	}
	if out["public"].Top[0].Code != "E2" {
		t.Fatalf("public top = %+v", out["public"].Top)
	}
}

func TestAuditTrail(t *testing.T) {
	ts, db := testServer(t)
	bob := client(t, ts, "bob")
	// Assign from the suggestion list (E1 is rank 1).
	resp, err := bob.PostForm(ts.URL+"/bundle/R001/assign", map[string][]string{"code": {"E1"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	entries, err := RecentAssignments(db, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("audit entries = %d", len(entries))
	}
	e := entries[0]
	if e.RefNo != "R001" || e.Code != "E1" || e.User != "bob" ||
		e.Source != "suggestion" || e.SuggRank != 1 {
		t.Fatalf("entry = %+v", e)
	}
	// Assign a catalog-only code.
	resp, err = bob.PostForm(ts.URL+"/bundle/R001/assign", map[string][]string{"code": {"E9"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	entries, _ = RecentAssignments(db, 10)
	if len(entries) != 2 || entries[0].Source != "catalog" || entries[0].SuggRank != 0 {
		t.Fatalf("entries = %+v", entries)
	}
	// Hit-rate summary.
	fromSugg, total, meanRank, err := SuggestionHitRate(db)
	if err != nil {
		t.Fatal(err)
	}
	if fromSugg != 1 || total != 2 || meanRank != 1.0 {
		t.Fatalf("hit rate = %d/%d mean %.2f", fromSugg, total, meanRank)
	}
}

func TestAuditPageAdminOnly(t *testing.T) {
	ts, _ := testServer(t)
	bob := client(t, ts, "bob")
	resp, err := bob.Get(ts.URL + "/audit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("expert audit status %d", resp.StatusCode)
	}
	alice := client(t, ts, "alice")
	code, body := get(t, alice, ts.URL+"/audit")
	if code != 200 || !strings.Contains(body, "audit trail") {
		t.Fatalf("admin audit: %d", code)
	}
}

func TestAPIAuditSummaryAdminOnly(t *testing.T) {
	ts, _ := testServer(t)
	bob := client(t, ts, "bob")
	resp, err := bob.Get(ts.URL + "/api/audit/summary")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("expert summary status %d", resp.StatusCode)
	}
	alice := client(t, ts, "alice")
	resp, err = alice.Get(ts.URL + "/api/audit/summary")
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	decodeJSON(t, resp, &out)
	if _, ok := out["assignments"]; !ok {
		t.Fatalf("summary = %v", out)
	}
}
