package quest

import (
	"fmt"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/bundle"
	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/reldb"
)

// testServer stands up a QUEST instance over a small in-memory database.
func testServer(t *testing.T) (*httptest.Server, *reldb.DB) {
	t.Helper()
	db, err := reldb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	for _, create := range []func(*reldb.DB) error{
		bundle.CreateTables, core.CreateResultsTable, CreateUserTables,
		CreateCatalogTables, CreateAuditTables,
	} {
		if err := create(db); err != nil {
			t.Fatal(err)
		}
	}
	b := &bundle.Bundle{
		RefNo: "R001", ArticleCode: "A1", PartID: "P1",
		Reports: []bundle.Report{
			{Source: bundle.SourceMechanic, Text: "radio turns on and off"},
			{Source: bundle.SourceSupplier, Text: "kontakt defekt"},
		},
	}
	if err := bundle.Store(db, b); err != nil {
		t.Fatal(err)
	}
	if err := core.SaveRecommendations(db, "R001", []core.ScoredCode{
		{Code: "E1", Score: 0.9}, {Code: "E2", Score: 0.4},
	}); err != nil {
		t.Fatal(err)
	}
	for _, e := range []CatalogEntry{
		{Code: "E1", PartID: "P1", Description: "contact failure"},
		{Code: "E2", PartID: "P1", Description: "loose wire"},
		{Code: "E9", PartID: "P1", Description: "water damage"},
	} {
		if err := AddCode(db, e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := AddUser(db, "alice", RoleAdmin); err != nil {
		t.Fatal(err)
	}
	if _, err := AddUser(db, "bob", RoleExpert); err != nil {
		t.Fatal(err)
	}
	internal := compare.FromCounts("internal OEM data", map[string]int{"E1": 5, "E2": 3})
	public := compare.FromCounts("NHTSA ODI complaints", map[string]int{"E2": 7, "E9": 2})
	srv, err := NewServer(Config{DB: db, Internal: internal, Public: public})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, db
}

// client returns an HTTP client with a cookie jar, logged in as name
// ("" = anonymous).
func client(t *testing.T, ts *httptest.Server, name string) *http.Client {
	t.Helper()
	jar, _ := cookiejar.New(nil)
	c := &http.Client{Jar: jar}
	if name != "" {
		resp, err := c.PostForm(ts.URL+"/login", url.Values{"name": {name}})
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	return c
}

func get(t *testing.T, c *http.Client, url string) (int, string) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}

func TestBundleListAndDetail(t *testing.T) {
	ts, _ := testServer(t)
	c := client(t, ts, "")
	code, body := get(t, c, ts.URL+"/")
	if code != 200 || !strings.Contains(body, "R001") {
		t.Fatalf("list: %d\n%s", code, body)
	}
	code, body = get(t, c, ts.URL+"/bundle/R001")
	if code != 200 {
		t.Fatalf("detail status %d", code)
	}
	for _, want := range []string{"radio turns on and off", "kontakt defekt", "E1", "0.900"} {
		if !strings.Contains(body, want) {
			t.Fatalf("detail missing %q:\n%s", want, body)
		}
	}
	// The suggestion list is capped at 10 and sorted: E1 before E2.
	if strings.Index(body, "E1") > strings.Index(body, "E2") {
		t.Fatal("suggestions not in rank order")
	}
}

func TestFullCodeListFallback(t *testing.T) {
	ts, _ := testServer(t)
	c := client(t, ts, "")
	code, body := get(t, c, ts.URL+"/bundle/R001/codes")
	if code != 200 {
		t.Fatalf("codes status %d", code)
	}
	// All three catalog codes of P1 are offered, including E9 which is not
	// among the suggestions.
	for _, want := range []string{"E1", "E2", "E9", "water damage"} {
		if !strings.Contains(body, want) {
			t.Fatalf("code list missing %q", want)
		}
	}
}

func TestAssignRequiresLogin(t *testing.T) {
	ts, db := testServer(t)
	anon := client(t, ts, "")
	resp, err := anon.PostForm(ts.URL+"/bundle/R001/assign", url.Values{"code": {"E1"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	b, _ := bundle.Load(db, "R001")
	if b.ErrorCode != "" {
		t.Fatal("anonymous assignment succeeded")
	}
	// Logged-in expert can assign.
	bob := client(t, ts, "bob")
	resp, err = bob.PostForm(ts.URL+"/bundle/R001/assign", url.Values{"code": {"E1"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	b, _ = bundle.Load(db, "R001")
	if b.ErrorCode != "E1" {
		t.Fatalf("assignment failed: %q", b.ErrorCode)
	}
}

func TestPendingFilter(t *testing.T) {
	ts, db := testServer(t)
	if err := bundle.SetErrorCode(db, "R001", "E1"); err != nil {
		t.Fatal(err)
	}
	c := client(t, ts, "")
	_, body := get(t, c, ts.URL+"/?pending=1")
	if strings.Contains(body, `href="/bundle/R001"`) {
		t.Fatal("assigned bundle listed as pending")
	}
}

func TestAdminRights(t *testing.T) {
	ts, db := testServer(t)
	bob := client(t, ts, "bob") // expert, no extended rights
	resp, err := bob.PostForm(ts.URL+"/codes/new", url.Values{
		"code": {"E100"}, "part_id": {"P1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("expert creating codes: status %d", resp.StatusCode)
	}
	alice := client(t, ts, "alice") // admin
	resp, err = alice.PostForm(ts.URL+"/codes/new", url.Values{
		"code": {"E100"}, "part_id": {"P1"}, "description": {"new failure"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok, _ := GetCode(db, "E100"); !ok {
		t.Fatal("admin code creation failed")
	}
}

func TestUserManagement(t *testing.T) {
	ts, db := testServer(t)
	alice := client(t, ts, "alice")
	resp, err := alice.PostForm(ts.URL+"/users", url.Values{"name": {"carol"}, "role": {"expert"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok, _ := GetUser(db, "carol"); !ok {
		t.Fatal("user not created")
	}
	// Delete carol.
	resp, err = alice.PostForm(ts.URL+"/users/delete", url.Values{"name": {"carol"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok, _ := GetUser(db, "carol"); ok {
		t.Fatal("user not deleted")
	}
	// Cannot delete yourself.
	resp, err = alice.PostForm(ts.URL+"/users/delete", url.Values{"name": {"alice"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("self-delete status %d", resp.StatusCode)
	}
}

func TestLoginValidation(t *testing.T) {
	ts, _ := testServer(t)
	c := client(t, ts, "")
	resp, err := c.PostForm(ts.URL+"/login", url.Values{"name": {"nobody"}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(sb.String(), "unknown user") {
		t.Fatal("unknown user accepted")
	}
}

func TestCompareScreen(t *testing.T) {
	ts, _ := testServer(t)
	c := client(t, ts, "")
	code, body := get(t, c, ts.URL+"/compare")
	if code != 200 {
		t.Fatalf("compare status %d", code)
	}
	for _, want := range []string{"internal OEM data", "NHTSA ODI complaints", "62.5%", "77.8%"} {
		if !strings.Contains(body, want) {
			t.Fatalf("compare missing %q:\n%s", want, body)
		}
	}
}

func TestNotFound(t *testing.T) {
	ts, _ := testServer(t)
	c := client(t, ts, "")
	if code, _ := get(t, c, ts.URL+"/bundle/NOPE"); code != 404 {
		t.Fatalf("missing bundle status %d", code)
	}
	if code, _ := get(t, c, ts.URL+"/totally/unknown"); code != 404 {
		t.Fatalf("unknown path status %d", code)
	}
}

func TestUserCRUDValidation(t *testing.T) {
	db, _ := reldb.Open("")
	if err := CreateUserTables(db); err != nil {
		t.Fatal(err)
	}
	if _, err := AddUser(db, "", RoleExpert); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := AddUser(db, "x", "superuser"); err == nil {
		t.Error("bad role accepted")
	}
	if _, err := AddUser(db, "x", RoleExpert); err != nil {
		t.Fatal(err)
	}
	// Rejected duplicates leave the original account findable.
	for i := 0; i < 2; i++ {
		if _, err := AddUser(db, "x", RoleAdmin); err == nil {
			t.Errorf("duplicate name accepted (attempt %d)", i+1)
		}
		u, ok, err := GetUser(db, "x")
		if err != nil || !ok || u.Role != RoleExpert {
			t.Fatalf("GetUser after duplicate %d = %+v, %v, %v", i+1, u, ok, err)
		}
	}
	if err := DeleteUser(db, "ghost"); err == nil {
		t.Error("deleting missing user succeeded")
	}
}

func TestCatalogValidation(t *testing.T) {
	db, _ := reldb.Open("")
	if err := CreateCatalogTables(db); err != nil {
		t.Fatal(err)
	}
	if err := AddCode(db, CatalogEntry{}); err == nil {
		t.Error("empty entry accepted")
	}
	if err := AddCode(db, CatalogEntry{Code: "E1", PartID: "P1"}); err != nil {
		t.Fatal(err)
	}
	// Rejected duplicates leave the original code findable.
	for i := 0; i < 2; i++ {
		if err := AddCode(db, CatalogEntry{Code: "E1", PartID: "P2"}); err == nil {
			t.Errorf("duplicate code accepted (attempt %d)", i+1)
		}
		e, ok, err := GetCode(db, "E1")
		if err != nil || !ok || e.PartID != "P1" {
			t.Fatalf("GetCode after duplicate %d = %+v, %v, %v", i+1, e, ok, err)
		}
	}
	codes, err := CodesForPart(db, "P1")
	if err != nil || len(codes) != 1 {
		t.Fatalf("codes = %v, %v", codes, err)
	}
}

func TestBundleListPaginationAndPartFilter(t *testing.T) {
	ts, db := testServer(t)
	// Add 60 more bundles across two parts so pagination kicks in.
	for i := 0; i < 60; i++ {
		part := "P1"
		if i%2 == 0 {
			part = "P2"
		}
		b := &bundle.Bundle{
			RefNo: fmt.Sprintf("RX%03d", i), ArticleCode: "A1", PartID: part,
			Reports: []bundle.Report{{Source: bundle.SourceMechanic, Text: "x"}},
		}
		if err := bundle.Store(db, b); err != nil {
			t.Fatal(err)
		}
	}
	c := client(t, ts, "")
	// Page 1 shows 50 rows; page 2 the rest.
	_, body := get(t, c, ts.URL+"/?page=1")
	if !strings.Contains(body, "page 1/2") {
		t.Fatalf("pagination header missing:\n%.300s", body)
	}
	if strings.Count(body, `href="/bundle/`) != 50 {
		t.Fatalf("page 1 rows = %d", strings.Count(body, `href="/bundle/`))
	}
	_, body = get(t, c, ts.URL+"/?page=2")
	if strings.Count(body, `href="/bundle/`) != 11 {
		t.Fatalf("page 2 rows = %d", strings.Count(body, `href="/bundle/`))
	}
	// Part filter.
	_, body = get(t, c, ts.URL+"/?part=P2")
	if strings.Count(body, `href="/bundle/`) != 30 {
		t.Fatalf("P2 rows = %d", strings.Count(body, `href="/bundle/`))
	}
	if strings.Contains(body, ">P1<") {
		t.Fatal("filter leaked other parts")
	}
	// Out-of-range page clamps.
	if code, _ := get(t, c, ts.URL+"/?page=99"); code != 200 {
		t.Fatalf("page clamp status %d", code)
	}
}

func TestCompareScreenPieCharts(t *testing.T) {
	ts, _ := testServer(t)
	c := client(t, ts, "")
	_, body := get(t, c, ts.URL+"/compare")
	if !strings.Contains(body, "conic-gradient(") {
		t.Fatal("pie charts missing from comparison screen")
	}
}
