package reldb

import (
	"fmt"
	"testing"
)

func benchDB(b *testing.B, rows int) *DB {
	b.Helper()
	db, err := Open("")
	if err != nil {
		b.Fatal(err)
	}
	if err := db.CreateTable(Schema{
		Name: "t",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "part", Type: TString, NotNull: true},
			{Name: "feature", Type: TString, NotNull: true},
			{Name: "score", Type: TFloat},
		},
		PrimaryKey: "id",
	}); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateIndex("t", "ix_pf", false, "part", "feature"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := db.Insert("t", Row{nil,
			fmt.Sprintf("P%02d", i%31),
			fmt.Sprintf("f%04d", i%500),
			float64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkInsert(b *testing.B) {
	db := benchDB(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Insert("t", Row{nil, "P01", fmt.Sprintf("f%06d", i), 1.0}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexedSelect(b *testing.B) {
	db := benchDB(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Select(Query{Table: "t", Where: []Cond{
			Eq("part", "P07"), Eq("feature", fmt.Sprintf("f%04d", i%500)),
		}})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkFullScanSelect(b *testing.B) {
	db := benchDB(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Select(Query{Table: "t", Where: []Cond{
			Eq("score", 9995.0),
		}})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkWALAppend(b *testing.B) {
	db, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(Schema{Name: "t", Columns: []Column{
		{Name: "id", Type: TInt}, {Name: "x", Type: TString},
	}, PrimaryKey: "id"}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Insert("t", Row{nil, "payload payload payload"}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSyncDB opens an on-disk database under the given durability
// policy with a one-column table ready for commits.
func benchSyncDB(b *testing.B, sync SyncPolicy) *DB {
	b.Helper()
	db, err := OpenWith(b.TempDir(), Options{Sync: sync})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if err := db.CreateTable(Schema{Name: "t", Columns: []Column{
		{Name: "id", Type: TInt}, {Name: "x", Type: TString},
	}, PrimaryKey: "id"}); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkCommitSyncAlways measures the per-commit cost of the default
// policy: one fsync on every write before it returns.
func BenchmarkCommitSyncAlways(b *testing.B) {
	db := benchSyncDB(b, SyncAlways)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Insert("t", Row{nil, "payload payload payload"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitGroupCommit measures SyncInterval under concurrent
// writers: commits from parallel goroutines share fsyncs, so per-commit
// cost amortizes toward the WAL-append cost as parallelism grows.
func BenchmarkCommitGroupCommit(b *testing.B) {
	db := benchSyncDB(b, SyncInterval)
	// 8 writers per core: batching is the point, and GOMAXPROCS may be 1.
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := db.Insert("t", Row{nil, "payload payload payload"}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCommitSyncNever is the durability-free upper bound: WAL
// appends reach the OS page cache but are never fsynced.
func BenchmarkCommitSyncNever(b *testing.B) {
	db := benchSyncDB(b, SyncNever)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Insert("t", Row{nil, "payload payload payload"}); err != nil {
			b.Fatal(err)
		}
	}
}
