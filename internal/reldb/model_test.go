package reldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/vfs"
)

// TestQueryMatchesNaiveModel is a model-based property test: a database
// under a random workload of inserts, updates and deletes, some of them
// rejected by a unique index, must answer every query exactly like a naive
// slice-of-rows model, regardless of which indexes exist and which access
// path the planner picks. Answers without ORDER BY come back in ascending
// row id. The database reopened from its files after a power cut, and
// again from the checkpoint its Close writes, must answer the same.
func TestQueryMatchesNaiveModel(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runModelWorkload(t, seed)
		})
	}
}

type modelRow struct {
	id  int64
	row Row
}

// Column positions of the model table.
const (
	mID = iota
	mPart
	mFeature
	mScore
	mTag
)

var (
	modelParts    = []string{"P1", "P2", "P3"}
	modelFeatures = []string{"fa", "fb", "fc", "fd"}
	// modelTags is small enough that the workload often picks a tag
	// another row already holds, which the unique index must reject.
	modelTags = func() []string {
		out := make([]string, 300)
		for i := range out {
			out[i] = fmt.Sprintf("t%03d", i)
		}
		return out
	}()
)

func runModelWorkload(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fsys := vfs.NewFaultFS(vfs.FaultConfig{Seed: seed})
	db, err := OpenWith("m", Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	schema := Schema{
		Name: "m",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "part", Type: TString, NotNull: true},
			{Name: "feature", Type: TString, NotNull: true},
			{Name: "score", Type: TFloat},
			{Name: "tag", Type: TString, NotNull: true},
		},
		PrimaryKey: "id",
	}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("m", "ux_tag", true, "tag"); err != nil {
		t.Fatal(err)
	}
	// Random subset of secondary indexes: the answers must not depend on them.
	if rng.Intn(2) == 0 {
		if err := db.CreateIndex("m", "ix_part", false, "part"); err != nil {
			t.Fatal(err)
		}
	}
	if rng.Intn(2) == 0 {
		if err := db.CreateIndex("m", "ix_pf", false, "part", "feature"); err != nil {
			t.Fatal(err)
		}
	}

	var model []modelRow // ascending id, like auto-assigned ids
	holder := func(tag string) int {
		return slices.IndexFunc(model, func(m modelRow) bool { return m.row[mTag] == tag })
	}
	// rejected checks a write the unique index must refuse: it failed, and
	// the row holding tag is still the one an index lookup finds.
	rejected := func(what string, err error, tag string) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s with tag %s held by row %d was accepted", what, tag, model[holder(tag)].id)
		}
		checkQuery(t, db, model, Query{Table: "m", Where: []Cond{Eq("tag", tag)}})
	}

	for op := 0; op < 400; op++ {
		if op == 200 {
			// Recovery then replays a snapshot plus a WAL.
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // insert
			row := Row{nil, modelParts[rng.Intn(len(modelParts))], modelFeatures[rng.Intn(len(modelFeatures))],
				float64(rng.Intn(20)), modelTags[rng.Intn(len(modelTags))]}
			id, err := db.Insert("m", row)
			if holder(row[mTag].(string)) >= 0 {
				rejected("insert", err, row[mTag].(string))
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			stored := row.Clone()
			stored[mID] = id
			model = append(model, modelRow{id: id, row: stored})
		case 6, 7: // update a random row, sometimes onto another row's tag
			if len(model) == 0 {
				continue
			}
			i := rng.Intn(len(model))
			updated := model[i].row.Clone()
			updated[mFeature] = modelFeatures[rng.Intn(len(modelFeatures))]
			updated[mScore] = float64(rng.Intn(20))
			if rng.Intn(3) == 0 {
				updated[mTag] = modelTags[rng.Intn(len(modelTags))]
			}
			err := db.Update("m", model[i].id, updated)
			if h := holder(updated[mTag].(string)); h >= 0 && h != i {
				rejected("update", err, updated[mTag].(string))
				checkQuery(t, db, model, Query{Table: "m", Where: []Cond{Eq("tag", model[i].row[mTag])}})
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			model[i].row = updated
		case 8: // delete a random row
			if len(model) == 0 {
				continue
			}
			i := rng.Intn(len(model))
			if err := db.Delete("m", model[i].id); err != nil {
				t.Fatal(err)
			}
			model = slices.Delete(model, i, i+1)
		case 9: // query and compare against the model
			checkQuery(t, db, model, randomQuery(rng))
		}
	}
	checkAll(t, db, model)

	// Cut the power (every commit was fsynced) and recover from the
	// surviving files, then once more from the checkpoint Close writes.
	fsys.Crash(vfs.RetainNone)
	for _, stage := range []string{"wal replay", "checkpoint"} {
		reopened, err := OpenWith("m", Options{FS: fsys})
		if err != nil {
			t.Fatalf("%s: reopen: %v", stage, err)
		}
		checkAll(t, reopened, model)
		if err := reopened.Close(); err != nil {
			t.Fatalf("%s: close: %v", stage, err)
		}
	}
}

func randomQuery(rng *rand.Rand) Query {
	q := Query{Table: "m"}
	if rng.Intn(2) == 0 {
		q.Where = append(q.Where, Eq("part", modelParts[rng.Intn(len(modelParts))]))
	}
	if rng.Intn(2) == 0 {
		q.Where = append(q.Where, Eq("feature", modelFeatures[rng.Intn(len(modelFeatures))]))
	}
	if rng.Intn(4) == 0 {
		q.Where = append(q.Where, Eq("score", rng.Intn(20)))
	}
	if rng.Intn(4) == 0 {
		q.Where = append(q.Where, Eq("tag", modelTags[rng.Intn(len(modelTags))]))
	}
	if rng.Intn(2) == 0 {
		q.OrderBy = "score"
		q.Desc = rng.Intn(2) == 0
	}
	if rng.Intn(3) == 0 {
		q.Limit = 1 + rng.Intn(5)
	}
	return q
}

// checkAll compares every row, each part's rows by score, and every tag
// lookup against the model.
func checkAll(t *testing.T, db *DB, model []modelRow) {
	t.Helper()
	checkQuery(t, db, model, Query{Table: "m"})
	for _, p := range modelParts {
		checkQuery(t, db, model, Query{Table: "m", Where: []Cond{Eq("part", p)}, OrderBy: "score"})
	}
	for _, tag := range modelTags {
		checkQuery(t, db, model, Query{Table: "m", Where: []Cond{Eq("tag", tag)}})
	}
}

// checkQuery compares db.Select against a naive evaluation over the model:
// the matching rows in ascending id, stably sorted by the ORDER BY column,
// then cut to the limit.
func checkQuery(t *testing.T, db *DB, model []modelRow, q Query) {
	t.Helper()
	res, err := db.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	cols := map[string]int{"id": mID, "part": mPart, "feature": mFeature, "score": mScore, "tag": mTag}
	var want []modelRow
	for _, m := range model {
		ok := true
		for _, c := range q.Where {
			pos := cols[c.Col]
			v, err := coerce(modelTypes[pos], c.Val)
			if err != nil {
				t.Fatal(err)
			}
			if m.row[pos] == nil || v == nil || compareValues(m.row[pos], v) != 0 {
				ok = false
				break
			}
		}
		if ok {
			want = append(want, m)
		}
	}
	if q.OrderBy != "" {
		pos := cols[q.OrderBy]
		slices.SortStableFunc(want, func(a, b modelRow) int {
			c := compareValues(a.row[pos], b.row[pos])
			if q.Desc {
				return -c
			}
			return c
		})
	}
	if q.Limit > 0 && len(want) > q.Limit {
		want = want[:q.Limit]
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("query %+v: got %d rows, want %d", q, len(res.Rows), len(want))
	}
	for i, m := range want {
		if res.RowIDs[i] != m.id || !reflect.DeepEqual(res.Rows[i], m.row) {
			t.Fatalf("query %+v: row %d = id %d %v, want id %d %v", q, i, res.RowIDs[i], res.Rows[i], m.id, m.row)
		}
	}
}

// modelTypes are the model table's column types, by position.
var modelTypes = []ColType{TInt, TString, TString, TFloat, TString}
