package reldb

import (
	"fmt"
	"slices"
	"sort"
)

// Cond is one conjunct of a WHERE clause: column Col equals Val.
type Cond struct {
	Col string
	Val Value
}

// Eq returns the condition col = val.
func Eq(col string, val Value) Cond { return Cond{Col: col, Val: val} }

// Query describes a select over one table. Conditions are a conjunction.
type Query struct {
	Table   string
	Where   []Cond
	OrderBy string // empty = ascending row id
	Desc    bool
	Limit   int // 0 = unlimited
}

// Result holds the rows produced by a query, along with their row ids.
type Result struct {
	RowIDs []int64
	Rows   []Row
}

// Select evaluates the query and returns all matching rows (copies).
func (db *DB) Select(q Query) (*Result, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.selectLocked(q)
}

func (db *DB) selectLocked(q Query) (*Result, error) {
	t, ok := db.tables[q.Table]
	if !ok {
		return nil, fmt.Errorf("reldb: no such table %q", q.Table)
	}
	conds, err := resolveConds(t, q.Where)
	if err != nil {
		return nil, err
	}
	orderCol := -1
	if q.OrderBy != "" {
		orderCol = t.schema.ColIndex(q.OrderBy)
		if orderCol < 0 {
			return nil, fmt.Errorf("reldb: table %q has no column %q", q.Table, q.OrderBy)
		}
	}

	// Without ORDER BY the first Limit matches are the answer; a sort
	// needs every match.
	limit := q.Limit
	if orderCol >= 0 {
		limit = 0
	}
	ids := t.match(conds, limit)
	rows := make([]Row, len(ids))
	for i, id := range ids {
		rows[i] = t.rows[id]
	}
	if orderCol >= 0 {
		sort.Stable(byColumn{ids: ids, rows: rows, col: orderCol, desc: q.Desc})
		if q.Limit > 0 && len(ids) > q.Limit {
			ids, rows = ids[:q.Limit], rows[:q.Limit]
		}
	}
	for i, r := range rows {
		rows[i] = r.Clone()
	}
	return &Result{RowIDs: ids, Rows: rows}, nil
}

// byColumn sorts rows on one column, keeping their ids aligned; nil sorts
// first.
type byColumn struct {
	ids  []int64
	rows []Row
	col  int
	desc bool
}

func (s byColumn) Len() int { return len(s.ids) }

func (s byColumn) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
}

func (s byColumn) Less(i, j int) bool {
	c := compareValues(s.rows[i][s.col], s.rows[j][s.col])
	if s.desc {
		return c > 0
	}
	return c < 0
}

// match returns the ascending ids of the rows that satisfy every condition,
// at most limit of them (0 = all). An index serves the query when each of
// its columns has a condition; otherwise the table is scanned.
func (t *table) match(conds []resolvedCond, limit int) []int64 {
	var cand []int64
	if ix := pickIndex(t, conds); ix != nil {
		cand = ix.lookup(conds)
	} else {
		cand = make([]int64, 0, len(t.rows))
		for id := range t.rows {
			cand = append(cand, id)
		}
		slices.Sort(cand)
	}
	var ids []int64
	for _, id := range cand {
		if matchAll(conds, t.rows[id]) {
			ids = append(ids, id)
			if len(ids) == limit {
				break
			}
		}
	}
	return ids
}

// SelectOne returns the single row matching the query, or ok=false when
// there is none. More than one match is an error.
func (db *DB) SelectOne(q Query) (Row, int64, bool, error) {
	q.Limit = 2
	res, err := db.Select(q)
	if err != nil {
		return nil, 0, false, err
	}
	switch len(res.Rows) {
	case 0:
		return nil, 0, false, nil
	case 1:
		return res.Rows[0], res.RowIDs[0], true, nil
	default:
		return nil, 0, false, fmt.Errorf("reldb: query on %q matched more than one row", q.Table)
	}
}

// DeleteWhere removes all rows matching the conditions, returning how many
// were deleted.
func (db *DB) DeleteWhere(tableName string, where ...Cond) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[tableName]
	if !ok {
		return 0, fmt.Errorf("reldb: no such table %q", tableName)
	}
	conds, err := resolveConds(t, where)
	if err != nil {
		return 0, err
	}
	doomed := t.match(conds, 0)
	recs := make([]walRecord, 0, len(doomed))
	for _, id := range doomed {
		if err := db.deleteLocked(tableName, id); err != nil {
			return 0, err
		}
		recs = append(recs, walRecord{Op: opDelete, Table: tableName, RowID: id})
	}
	if err := db.logRecords(recs...); err != nil {
		return 0, err
	}
	return len(doomed), nil
}

// resolvedCond is a Cond with the column position resolved and the value
// coerced to the column type.
type resolvedCond struct {
	col int
	val Value
}

// matchAll reports whether row satisfies every condition. SQL-style, a
// NULL on either side never matches.
func matchAll(conds []resolvedCond, row Row) bool {
	for _, c := range conds {
		if row[c.col] == nil || c.val == nil || compareValues(row[c.col], c.val) != 0 {
			return false
		}
	}
	return true
}

func resolveConds(t *table, where []Cond) ([]resolvedCond, error) {
	out := make([]resolvedCond, 0, len(where))
	for _, c := range where {
		p := t.schema.ColIndex(c.Col)
		if p < 0 {
			return nil, fmt.Errorf("reldb: table %q has no column %q", t.schema.Name, c.Col)
		}
		v, err := coerce(t.schema.Columns[p].Type, c.Val)
		if err != nil {
			return nil, err
		}
		out = append(out, resolvedCond{col: p, val: v})
	}
	return out, nil
}

// pickIndex chooses the index that serves the conditions: one with a
// condition on each of its columns, preferring more columns, then the
// smaller name. Nil means a scan.
func pickIndex(t *table, conds []resolvedCond) *index {
	var best *index
	for _, ix := range t.indexes {
		if !covers(ix, conds) {
			continue
		}
		if best == nil || len(ix.cols) > len(best.cols) ||
			len(ix.cols) == len(best.cols) && ix.name < best.name {
			best = ix
		}
	}
	return best
}

// covers reports whether every column of ix has a condition.
func covers(ix *index, conds []resolvedCond) bool {
	for _, col := range ix.cols {
		if _, ok := condVal(conds, col); !ok {
			return false
		}
	}
	return true
}

// condVal returns the value of the first condition on column col.
func condVal(conds []resolvedCond, col int) (Value, bool) {
	for _, c := range conds {
		if c.col == col {
			return c.val, true
		}
	}
	return nil, false
}

// Plan describes the access path Select would take for a query — the
// EXPLAIN of this engine.
type Plan struct {
	Access string   // "index-lookup" or "full-scan"
	Index  string   // index name, if any
	Sorted bool     // whether an explicit sort step runs afterwards
	Conds  []string // rendered conditions
}

// String renders the plan in one line.
func (p Plan) String() string {
	s := p.Access
	if p.Index != "" {
		s += " " + p.Index
	}
	if p.Sorted {
		s += " + sort"
	}
	return s
}

// Explain returns the access plan for a query without executing it.
func (db *DB) Explain(q Query) (Plan, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[q.Table]
	if !ok {
		return Plan{}, fmt.Errorf("reldb: no such table %q", q.Table)
	}
	conds, err := resolveConds(t, q.Where)
	if err != nil {
		return Plan{}, err
	}
	plan := Plan{Access: "full-scan", Sorted: q.OrderBy != ""}
	for _, c := range q.Where {
		plan.Conds = append(plan.Conds, fmt.Sprintf("%s = %s", c.Col, FormatValue(c.Val)))
	}
	if ix := pickIndex(t, conds); ix != nil {
		plan.Access = "index-lookup"
		plan.Index = ix.name
	}
	return plan, nil
}
