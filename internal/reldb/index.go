package reldb

import (
	"fmt"
)

// index is a secondary (or primary) index over one or more columns.
//
// Keys are the order-preserving encodings of the indexed column values.
// For unique indexes the skip-list key is exactly that encoding; for
// non-unique indexes the row id is appended so equal column values remain
// distinct skip-list entries while still clustering in key order.
type index struct {
	name   string
	cols   []int // column positions in the table schema
	unique bool
	list   *skipList
}

func newIndex(name string, cols []int, unique bool) *index {
	return &index{name: name, cols: cols, unique: unique, list: newSkipList()}
}

// colKey encodes the indexed columns of a row.
func (ix *index) colKey(row Row) []byte {
	key := make([]byte, 0, 16*len(ix.cols))
	for _, c := range ix.cols {
		key = encodeKey(key, row[c])
	}
	return key
}

// entryKey is the skip-list key for a row: colKey for unique indexes,
// colKey plus the row id for non-unique ones.
func (ix *index) entryKey(row Row, id int64) []byte {
	key := ix.colKey(row)
	if !ix.unique {
		key = encodeKey(key, id)
	}
	return key
}

// insert adds a row to the index, enforcing uniqueness.
func (ix *index) insert(row Row, id int64) error {
	if !ix.list.insert(ix.entryKey(row, id), id) {
		return fmt.Errorf("reldb: unique index %q violated by %s", ix.name, FormatValue(row[ix.cols[0]]))
	}
	return nil
}

// remove deletes a row from the index.
func (ix *index) remove(row Row, id int64) {
	ix.list.delete(ix.entryKey(row, id))
}

// lookup finds all row ids whose indexed columns equal vals (a full-prefix
// equality match over len(vals) leading index columns).
func (ix *index) lookup(vals []Value) []int64 {
	prefix := make([]byte, 0, 16*len(vals))
	for _, v := range vals {
		prefix = encodeKey(prefix, v)
	}
	var ids []int64
	for n := ix.list.seek(prefix); n != nil && hasPrefix(n.key, prefix); n = n.next[0] {
		ids = append(ids, n.val)
	}
	return ids
}

// scanRange walks entries whose first indexed column lies within the given
// bounds (nil bound = open). fn returning false stops the scan early.
func (ix *index) scanRange(lo, hi Value, loIncl, hiIncl bool, fn func(id int64) bool) {
	var start []byte
	if lo != nil {
		start = encodeKey(nil, lo)
	}
	n := ix.list.seek(start)
	if lo != nil && !loIncl {
		// Skip all entries whose first column equals lo.
		for n != nil && hasPrefix(n.key, start) {
			n = n.next[0]
		}
	}
	var hiKey []byte
	if hi != nil {
		hiKey = encodeKey(nil, hi)
	}
	for ; n != nil; n = n.next[0] {
		if hi != nil {
			if hiIncl {
				if compareBytes(n.key, hiKey) >= 0 && !hasPrefix(n.key, hiKey) {
					return
				}
			} else if compareBytes(n.key, hiKey) >= 0 {
				return
			}
		}
		if !fn(n.val) {
			return
		}
	}
}

func hasPrefix(b, prefix []byte) bool {
	if len(b) < len(prefix) {
		return false
	}
	return compareBytes(b[:len(prefix)], prefix) == 0
}
