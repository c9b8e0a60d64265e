package reldb

import (
	"strings"
	"testing"
)

func partsSchema() Schema {
	return Schema{
		Name: "parts",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "name", Type: TString, NotNull: true},
			{Name: "weight", Type: TFloat},
			{Name: "active", Type: TBool},
		},
		PrimaryKey: "id",
	}
}

func mustOpenMem(t *testing.T) *DB {
	t.Helper()
	db, err := Open("")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func TestCreateTableAndInsert(t *testing.T) {
	db := mustOpenMem(t)
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	id, err := db.Insert("parts", Row{nil, "fender", 2.5, true})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if id != 1 {
		t.Fatalf("auto id = %d, want 1", id)
	}
	row, ok := db.Get("parts", 1)
	if !ok {
		t.Fatal("Get: row missing")
	}
	if row[0].(int64) != 1 || row[1].(string) != "fender" {
		t.Fatalf("row = %v", row)
	}
}

func TestInsertExplicitPrimaryKey(t *testing.T) {
	db := mustOpenMem(t)
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatal(err)
	}
	id, err := db.Insert("parts", Row{int64(42), "radio", 1.0, false})
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 {
		t.Fatalf("id = %d, want 42", id)
	}
	// Next auto id continues after the explicit one.
	id2, err := db.Insert("parts", Row{nil, "lamp", 0.2, true})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != 43 {
		t.Fatalf("id2 = %d, want 43", id2)
	}
	// Duplicate explicit key rejected.
	if _, err := db.Insert("parts", Row{int64(42), "dup", 0.0, true}); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
}

func TestNotNullEnforced(t *testing.T) {
	db := mustOpenMem(t)
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("parts", Row{nil, nil, 1.0, true}); err == nil {
		t.Fatal("NULL accepted for NOT NULL column")
	}
}

func TestTypeChecking(t *testing.T) {
	db := mustOpenMem(t)
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("parts", Row{nil, "x", "not a float", true}); err == nil {
		t.Fatal("type mismatch accepted")
	}
	// int is coerced to the declared FLOAT type.
	if _, err := db.Insert("parts", Row{nil, "x", 3, true}); err != nil {
		t.Fatalf("int->float coercion failed: %v", err)
	}
	row, _ := db.Get("parts", 1)
	if row[2].(float64) != 3.0 {
		t.Fatalf("coerced value = %v", row[2])
	}
}

func TestWrongArity(t *testing.T) {
	db := mustOpenMem(t)
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("parts", Row{nil, "x"}); err == nil {
		t.Fatal("short row accepted")
	}
}

func TestUpdateAndDelete(t *testing.T) {
	db := mustOpenMem(t)
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatal(err)
	}
	id, _ := db.Insert("parts", Row{nil, "fender", 2.5, true})
	if err := db.Update("parts", id, Row{id, "fender mk2", 2.7, false}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	row, _ := db.Get("parts", id)
	if row[1].(string) != "fender mk2" || row[3].(bool) {
		t.Fatalf("row after update = %v", row)
	}
	if err := db.Delete("parts", id); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok := db.Get("parts", id); ok {
		t.Fatal("row still present after delete")
	}
	if err := db.Delete("parts", id); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestPrimaryKeyImmutable(t *testing.T) {
	db := mustOpenMem(t)
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatal(err)
	}
	id, _ := db.Insert("parts", Row{nil, "a", 1.0, true})
	if err := db.Update("parts", id, Row{id + 7, "a", 1.0, true}); err == nil {
		t.Fatal("primary key change accepted")
	}
}

func TestUniqueSecondaryIndex(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("parts", "ux_name", true, "name"); err != nil {
		t.Fatal(err)
	}
	fender, err := db.Insert("parts", Row{nil, "fender", 1.0, true})
	if err != nil {
		t.Fatal(err)
	}
	// findable checks that the index still leads to the row holding name.
	findable := func(name string, id int64) {
		t.Helper()
		_, got, ok, err := db.SelectOne(Query{Table: "parts", Where: []Cond{Eq("name", name)}})
		if err != nil || !ok || got != id {
			t.Fatalf("lookup of %q = row %d, ok=%v, err=%v; want row %d", name, got, ok, err, id)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := db.Insert("parts", Row{nil, "fender", 2.0, true}); err == nil {
			t.Fatalf("duplicate insert %d accepted", i+1)
		}
		// The rejected insert leaves neither a phantom row nor a hole in
		// the index where the first fender was.
		if n, _ := db.Count("parts"); n != 1 {
			t.Fatalf("row count after failed insert = %d, want 1", n)
		}
		findable("fender", fender)
	}
	// A different name is fine; renaming it onto fender is not, and the
	// rejected update leaves both rows where they were.
	lamp, err := db.Insert("parts", Row{nil, "lamp", 2.0, true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update("parts", lamp, Row{lamp, "fender", 2.0, true}); err == nil {
		t.Fatal("update onto an existing unique key accepted")
	}
	findable("fender", fender)
	findable("lamp", lamp)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	findable("fender", fender)
	findable("lamp", lamp)
}

func TestCreateIndexOnExistingRows(t *testing.T) {
	db := mustOpenMem(t)
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"c", "a", "b"} {
		if _, err := db.Insert("parts", Row{nil, name, 1.0, true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateIndex("parts", "ix_name", false, "name"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Select(Query{Table: "parts", Where: []Cond{Eq("name", "b")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].(string) != "b" {
		t.Fatalf("index lookup rows = %v", res.Rows)
	}
}

func TestErrorsOnUnknownTable(t *testing.T) {
	db := mustOpenMem(t)
	if _, err := db.Insert("nope", Row{}); err == nil {
		t.Fatal("insert into unknown table accepted")
	}
	if err := db.Update("nope", 1, Row{}); err == nil {
		t.Fatal("update of unknown table accepted")
	}
	if err := db.Delete("nope", 1); err == nil {
		t.Fatal("delete from unknown table accepted")
	}
	if _, err := db.Select(Query{Table: "nope"}); err == nil {
		t.Fatal("select from unknown table accepted")
	}
	if _, err := db.Count("nope"); err == nil {
		t.Fatal("count of unknown table accepted")
	}
}

func TestSchemaValidation(t *testing.T) {
	db := mustOpenMem(t)
	cases := []Schema{
		{},
		{Name: "t"},
		{Name: "t", Columns: []Column{{Name: "", Type: TInt}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: TInt}, {Name: "a", Type: TInt}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: 0}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: TInt}}, PrimaryKey: "zzz"},
	}
	for i, s := range cases {
		if err := db.CreateTable(s); err == nil {
			t.Errorf("case %d: invalid schema accepted: %v", i, s)
		}
	}
}

func TestDuplicateTable(t *testing.T) {
	db := mustOpenMem(t)
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(partsSchema()); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	db := mustOpenMem(t)
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatal(err)
	}
	id, _ := db.Insert("parts", Row{nil, "a", 1.0, true})
	row, _ := db.Get("parts", id)
	row[1] = "mutated"
	fresh, _ := db.Get("parts", id)
	if fresh[1].(string) != "a" {
		t.Fatal("Get exposed internal storage")
	}
}

func TestSchemaString(t *testing.T) {
	s := partsSchema()
	str := s.String()
	for _, want := range []string{"CREATE TABLE parts", "id INT PRIMARY KEY", "name TEXT NOT NULL"} {
		if !strings.Contains(str, want) {
			t.Errorf("schema string %q missing %q", str, want)
		}
	}
}

func TestTablesSorted(t *testing.T) {
	db := mustOpenMem(t)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := db.CreateTable(Schema{Name: n, Columns: []Column{{Name: "x", Type: TInt}}}); err != nil {
			t.Fatal(err)
		}
	}
	got := db.Tables()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tables() = %v, want %v", got, want)
		}
	}
}
