package reldb

import (
	"testing"
)

// fixture builds a table of error-code rows resembling the QATK result
// tables, with a non-unique index on part.
func fixture(t *testing.T) *DB {
	t.Helper()
	db := mustOpenMem(t)
	schema := Schema{
		Name: "codes",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "part", Type: TString, NotNull: true},
			{Name: "code", Type: TString, NotNull: true},
			{Name: "score", Type: TFloat},
		},
		PrimaryKey: "id",
	}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("codes", "ix_part", false, "part"); err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{nil, "P1", "E100", 0.9},
		{nil, "P1", "E200", 0.5},
		{nil, "P2", "E100", 0.7},
		{nil, "P2", "E300", 0.2},
		{nil, "P3", "E400", 0.4},
		{nil, "P1", "E300", 0.1},
	}
	for _, r := range rows {
		if _, err := db.Insert("codes", r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestSelectAll(t *testing.T) {
	db := fixture(t)
	res, err := db.Select(Query{Table: "codes"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(res.Rows))
	}
	for i, r := range res.Rows {
		if len(r) != 4 || r[0].(int64) != res.RowIDs[i] || res.RowIDs[i] != int64(i+1) {
			t.Fatalf("row %d = %v (id %d), want every column in row-id order", i, r, res.RowIDs[i])
		}
	}
}

func TestSelectEqUsesIndex(t *testing.T) {
	db := fixture(t)
	res, err := db.Select(Query{Table: "codes", Where: []Cond{Eq("part", "P1")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].(string) != "P1" {
			t.Fatalf("row %v does not match predicate", r)
		}
	}
}

func TestSelectConjunction(t *testing.T) {
	db := fixture(t)
	res, err := db.Select(Query{Table: "codes", Where: []Cond{
		Eq("part", "P2"),
		Eq("code", "E100"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][3].(float64) != 0.7 {
		t.Fatalf("P2/E100 rows = %v, want the one scored 0.7", res.Rows)
	}
	res, err = db.Select(Query{Table: "codes", Where: []Cond{Eq("part", "P3"), Eq("code", "E100")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("P3/E100 rows = %v, want none", res.Rows)
	}
}

func TestSelectOrderByDescLimit(t *testing.T) {
	db := fixture(t)
	res, err := db.Select(Query{Table: "codes", Where: []Cond{Eq("part", "P1")},
		OrderBy: "score", Desc: true, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	if res.Rows[0][2].(string) != "E100" || res.Rows[1][2].(string) != "E200" {
		t.Fatalf("order wrong: %v", res.Rows)
	}
}

func TestSelectOrderAsc(t *testing.T) {
	db := fixture(t)
	res, err := db.Select(Query{Table: "codes", OrderBy: "score"})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, r := range res.Rows {
		s := r[3].(float64)
		if s < prev {
			t.Fatalf("not ascending: %v", res.Rows)
		}
		prev = s
	}
}

func TestSelectNullNeverMatches(t *testing.T) {
	db := fixture(t)
	// score is nullable; insert a NULL-score row.
	if _, err := db.Insert("codes", Row{nil, "P9", "E900", nil}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Select(Query{Table: "codes", Where: []Cond{Eq("score", nil)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("NULL = NULL matched %v", res.Rows)
	}
	// The NULL cell reads back as nil.
	res, err = db.Select(Query{Table: "codes", Where: []Cond{Eq("code", "E900")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][3] != nil {
		t.Fatalf("NULL row read back as %v", res.Rows)
	}
}

// Negative ints and floats are found by equality, through an index and
// without one, and ORDER BY sorts them below zero.
func TestSelectNegativeNumbers(t *testing.T) {
	db := mustOpenMem(t)
	if err := db.CreateTable(Schema{Name: "t", Columns: []Column{{Name: "a", Type: TInt}, {Name: "b", Type: TFloat}}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("t", "ix_a", false, "a"); err != nil {
		t.Fatal(err)
	}
	for _, r := range []Row{{int64(3), 2.5}, {int64(-5), -1.5}} {
		if _, err := db.Insert("t", r); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []Cond{Eq("a", -5), Eq("b", -1.5)} {
		res, err := db.Select(Query{Table: "t", Where: []Cond{c}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].(int64) != -5 || res.Rows[0][1].(float64) != -1.5 {
			t.Fatalf("%s = %v: rows = %v", c.Col, c.Val, res.Rows)
		}
	}
	for _, col := range []string{"a", "b"} {
		res, err := db.Select(Query{Table: "t", OrderBy: col})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 || res.Rows[0][0].(int64) != -5 {
			t.Fatalf("ORDER BY %s: rows = %v", col, res.Rows)
		}
	}
}

func TestSelectOne(t *testing.T) {
	db := fixture(t)
	row, id, ok, err := db.SelectOne(Query{Table: "codes", Where: []Cond{Eq("code", "E400")}})
	if err != nil || !ok {
		t.Fatalf("SelectOne: %v ok=%v", err, ok)
	}
	if row[1].(string) != "P3" || id == 0 {
		t.Fatalf("row=%v id=%d", row, id)
	}
	_, _, ok, err = db.SelectOne(Query{Table: "codes", Where: []Cond{Eq("code", "does-not-exist")}})
	if err != nil || ok {
		t.Fatalf("missing row: ok=%v err=%v", ok, err)
	}
	if _, _, _, err := db.SelectOne(Query{Table: "codes", Where: []Cond{Eq("part", "P1")}}); err == nil {
		t.Fatal("ambiguous SelectOne accepted")
	}
}

func TestDeleteWhere(t *testing.T) {
	db := fixture(t)
	n, err := db.DeleteWhere("codes", Eq("part", "P1"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("deleted %d, want 3", n)
	}
	total, _ := db.Count("codes")
	if total != 3 {
		t.Fatalf("remaining %d, want 3", total)
	}
	// Index reflects the deletion.
	res, _ := db.Select(Query{Table: "codes", Where: []Cond{Eq("part", "P1")}})
	if len(res.Rows) != 0 {
		t.Fatalf("index still returns deleted rows: %v", res.Rows)
	}
}

func TestSelectLimitWithoutOrder(t *testing.T) {
	db := fixture(t)
	res, err := db.Select(Query{Table: "codes", Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
}

func TestUpdateReflectedInIndex(t *testing.T) {
	db := fixture(t)
	res, _ := db.Select(Query{Table: "codes", Where: []Cond{Eq("code", "E400")}})
	id := res.RowIDs[0]
	row := res.Rows[0]
	row[1] = "P1" // move E400 from P3 to P1
	row[3] = 0.95 // and change its score in the same update
	if err := db.Update("codes", id, row); err != nil {
		t.Fatal(err)
	}
	p1, _ := db.Select(Query{Table: "codes", Where: []Cond{Eq("part", "P1")}})
	if len(p1.Rows) != 4 {
		t.Fatalf("P1 rows = %d, want 4", len(p1.Rows))
	}
	moved, _ := db.Select(Query{Table: "codes", Where: []Cond{Eq("code", "E400")}})
	if len(moved.Rows) != 1 || moved.Rows[0][1].(string) != "P1" || moved.Rows[0][3].(float64) != 0.95 {
		t.Fatalf("E400 after update = %v", moved.Rows)
	}
	p3, _ := db.Select(Query{Table: "codes", Where: []Cond{Eq("part", "P3")}})
	if len(p3.Rows) != 0 {
		t.Fatalf("P3 rows = %d, want 0", len(p3.Rows))
	}
}

func TestScanVisitsAll(t *testing.T) {
	db := fixture(t)
	n := 0
	if err := db.Scan("codes", func(id int64, row Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("scanned %d, want 6", n)
	}
	// Early stop.
	n = 0
	_ = db.Scan("codes", func(id int64, row Row) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early-stop scanned %d, want 2", n)
	}
}

func TestCompositeIndexPrefixLookup(t *testing.T) {
	db := fixture(t)
	if err := db.CreateIndex("codes", "ix_part_code", false, "part", "code"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Select(Query{Table: "codes", Where: []Cond{Eq("part", "P1"), Eq("code", "E300")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][2].(string) != "E300" {
		t.Fatalf("composite lookup rows = %v", res.Rows)
	}
}

func TestExplainAccessPaths(t *testing.T) {
	db := fixture(t)
	cases := []struct {
		q      Query
		access string
		index  string
	}{
		{Query{Table: "codes", Where: []Cond{Eq("part", "P1")}}, "index-lookup", "ix_part"},
		{Query{Table: "codes", Where: []Cond{Eq("id", 3)}}, "index-lookup", "pk_codes"},
		{Query{Table: "codes", Where: []Cond{Eq("score", 0.5)}}, "full-scan", ""},
		{Query{Table: "codes"}, "full-scan", ""},
	}
	for i, c := range cases {
		plan, err := db.Explain(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Access != c.access || plan.Index != c.index {
			t.Errorf("case %d: plan = %+v, want %s %s", i, plan, c.access, c.index)
		}
	}
	if _, err := db.Explain(Query{Table: "nope"}); err == nil {
		t.Error("explain of unknown table accepted")
	}
	// The composite index is preferred when both columns have equality
	// conds, and serves nothing when one of them has none.
	if err := db.CreateIndex("codes", "ix_part_code2", false, "part", "code"); err != nil {
		t.Fatal(err)
	}
	plan, _ := db.Explain(Query{Table: "codes", Where: []Cond{Eq("part", "P1"), Eq("code", "E100")}})
	if plan.Index != "ix_part_code2" {
		t.Errorf("composite plan = %+v", plan)
	}
	if got, want := plan.String(), "index-lookup ix_part_code2"; got != want {
		t.Errorf("plan string = %q, want %q", got, want)
	}
	plan, _ = db.Explain(Query{Table: "codes", Where: []Cond{Eq("code", "E100")}, OrderBy: "score"})
	if got, want := plan.String(), "full-scan + sort"; got != want {
		t.Errorf("code-only plan = %q, want %q", got, want)
	}
}
