package kb

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/reldb"
)

// Relational persistence of the knowledge base (paper §2.2/§4.5.1: the kNN
// instances are held in the relational database). The tables are the
// persisted form only: one row per knowledge node and one row per (part,
// code) frequency. OpenDB loads them into a Memory, whose inverted index
// answers every query, so there is one query engine over the knowledge
// base however it was obtained.

// Table names used by the knowledge-base store.
const (
	TableNodes    = "kb_nodes"
	TableCodeFreq = "kb_codefreq"
)

// CreateTables creates the knowledge-base schema.
func CreateTables(db *reldb.DB) error {
	if err := db.CreateTable(reldb.Schema{
		Name: TableNodes,
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.TInt},
			{Name: "part_id", Type: reldb.TString, NotNull: true},
			{Name: "error_code", Type: reldb.TString, NotNull: true},
			{Name: "features", Type: reldb.TString, NotNull: true}, // \x01-joined sorted list
		},
		PrimaryKey: "id",
	}); err != nil {
		return err
	}
	return db.CreateTable(reldb.Schema{
		Name: TableCodeFreq,
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.TInt},
			{Name: "part_id", Type: reldb.TString, NotNull: true},
			{Name: "error_code", Type: reldb.TString, NotNull: true},
			{Name: "count", Type: reldb.TInt, NotNull: true},
		},
		PrimaryKey: "id",
	})
}

// Persist writes an in-memory knowledge base into db (Knowledge Base
// Persistence, pipeline step 3b).
func Persist(db *reldb.DB, m *Memory) error {
	tx := db.Begin()
	for _, n := range m.nodes {
		tx.Insert(TableNodes, reldb.Row{
			n.ID, n.PartID, n.ErrorCode, strings.Join(n.Features, "\x01"),
		})
	}
	parts := make([]string, 0, len(m.freq))
	for p := range m.freq {
		parts = append(parts, p)
	}
	sort.Strings(parts)
	for _, p := range parts {
		for _, cc := range sortedCounts(m.freq[p]) {
			tx.Insert(TableCodeFreq, reldb.Row{nil, p, cc.Code, int64(cc.Count)})
		}
	}
	return tx.Commit()
}

// OpenDB loads the knowledge base persisted in db into a Memory. Nodes keep
// their persisted IDs, which the sharded tier's merge tie-breaks on, and
// are indexed in ID order, so the loaded Memory ranks exactly like the one
// that was persisted. Tables other than the two it reads are ignored.
func OpenDB(db *reldb.DB) (*Memory, error) {
	nodes, err := db.Select(reldb.Query{Table: TableNodes, OrderBy: "id"})
	if err != nil {
		return nil, fmt.Errorf("kb: load %s: %w", TableNodes, err)
	}
	freq, err := db.Select(reldb.Query{Table: TableCodeFreq})
	if err != nil {
		return nil, fmt.Errorf("kb: load %s: %w", TableCodeFreq, err)
	}
	m := NewMemory()
	for _, row := range nodes.Rows {
		n := &Node{
			ID:        row[0].(int64),
			PartID:    row[1].(string),
			ErrorCode: row[2].(string),
		}
		if fs := row[3].(string); fs != "" {
			n.Features = strings.Split(fs, "\x01")
		}
		m.addNode(n)
	}
	for _, row := range freq.Rows {
		m.addCount(row[1].(string), row[2].(string), int(row[3].(int64)))
	}
	return m, nil
}
