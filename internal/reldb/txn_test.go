package reldb

import "testing"

func TestTxnCommitAppliesAll(t *testing.T) {
	db := mustOpenMem(t)
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	tx.Insert("parts", Row{nil, "a", 1.0, true})
	tx.Insert("parts", Row{nil, "b", 2.0, true})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	n, _ := db.Count("parts")
	if n != 2 {
		t.Fatalf("rows = %d, want 2", n)
	}
}

func TestTxnAtomicRollbackOnFailure(t *testing.T) {
	db := mustOpenMem(t)
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("parts", "ux_name", true, "name"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("parts", Row{nil, "exists", 0.0, true}); err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	tx.Insert("parts", Row{nil, "new1", 1.0, true})
	tx.Insert("parts", Row{nil, "exists", 2.0, true}) // violates unique index
	tx.Insert("parts", Row{nil, "new2", 3.0, true})
	if err := tx.Commit(); err == nil {
		t.Fatal("commit with unique violation succeeded")
	}
	n, _ := db.Count("parts")
	if n != 1 {
		t.Fatalf("rows after failed commit = %d, want 1", n)
	}
	res, _ := db.Select(Query{Table: "parts", Where: []Cond{Eq("name", "new1")}})
	if len(res.Rows) != 0 {
		t.Fatal("partial transaction state leaked")
	}
	// Undoing the rejected insert must not unindex the row it collided with.
	res, _ = db.Select(Query{Table: "parts", Where: []Cond{Eq("name", "exists")}})
	if len(res.Rows) != 1 || res.Rows[0][2].(float64) != 0.0 {
		t.Fatalf("pre-existing row after failed commit: %v", res.Rows)
	}
}

func TestTxnUpdateDeleteUndo(t *testing.T) {
	db := mustOpenMem(t)
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatal(err)
	}
	id1, _ := db.Insert("parts", Row{nil, "a", 1.0, true})
	id2, _ := db.Insert("parts", Row{nil, "b", 2.0, true})

	tx := db.Begin()
	tx.Update("parts", id1, Row{id1, "a2", 1.5, false})
	tx.Delete("parts", id2)
	tx.Update("parts", 999, Row{int64(999), "x", 0.0, true}) // fails: no such row
	if err := tx.Commit(); err == nil {
		t.Fatal("commit with bad update succeeded")
	}
	// Both earlier ops must be undone.
	r1, _ := db.Get("parts", id1)
	if r1[1].(string) != "a" {
		t.Fatalf("update not undone: %v", r1)
	}
	if _, ok := db.Get("parts", id2); !ok {
		t.Fatal("delete not undone")
	}
}

func TestTxnRollbackDiscards(t *testing.T) {
	db := mustOpenMem(t)
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	tx.Insert("parts", Row{nil, "a", 1.0, true})
	tx.Rollback()
	if err := tx.Commit(); err == nil {
		t.Fatal("commit after rollback accepted")
	}
	n, _ := db.Count("parts")
	if n != 0 {
		t.Fatalf("rows = %d, want 0", n)
	}
}

func TestTxnDoubleCommit(t *testing.T) {
	db := mustOpenMem(t)
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	tx.Insert("parts", Row{nil, "a", 1.0, true})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("second commit accepted")
	}
}

func TestTxnDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(partsSchema()); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 10; i++ {
		tx.Insert("parts", Row{nil, "p", float64(i), true})
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db = reopen(t, db, dir)
	defer db.Close()
	n, _ := db.Count("parts")
	if n != 10 {
		t.Fatalf("rows after reopen = %d, want 10", n)
	}
}
