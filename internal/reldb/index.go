package reldb

import (
	"fmt"
	"slices"
)

// index is a hash index over one or more columns: it maps the encoded key
// of a row's indexed columns (see encodeKey) to the ascending ids of the
// rows that carry it. It answers equality on every one of its columns and
// nothing else; a unique index holds at most one id per key.
type index struct {
	name   string
	cols   []int // column positions in the table schema
	unique bool
	ids    map[string][]int64
}

func newIndex(name string, cols []int, unique bool) *index {
	return &index{name: name, cols: cols, unique: unique, ids: make(map[string][]int64)}
}

// keyBufSize sizes the stack buffer keys are built in. Longer keys still
// work; they spill to the heap.
const keyBufSize = 64

// key appends the encoded indexed columns of row to dst.
func (ix *index) key(dst []byte, row Row) []byte {
	for _, c := range ix.cols {
		dst = encodeKey(dst, row[c])
	}
	return dst
}

// insert adds id under row's key, enforcing uniqueness.
func (ix *index) insert(row Row, id int64) error {
	var buf [keyBufSize]byte
	key := ix.key(buf[:0], row)
	ids := ix.ids[string(key)]
	if ix.unique && len(ids) > 0 {
		return fmt.Errorf("reldb: unique index %q violated by %s", ix.name, FormatValue(row[ix.cols[0]]))
	}
	i, _ := slices.BinarySearch(ids, id)
	ix.ids[string(key)] = slices.Insert(ids, i, id)
	return nil
}

// remove deletes id from under row's key and nothing else; it is a no-op
// when id is not there.
func (ix *index) remove(row Row, id int64) {
	var buf [keyBufSize]byte
	key := ix.key(buf[:0], row)
	ids := ix.ids[string(key)]
	i, found := slices.BinarySearch(ids, id)
	switch {
	case !found:
	case len(ids) == 1:
		delete(ix.ids, string(key))
	default:
		ix.ids[string(key)] = slices.Delete(ids, i, i+1)
	}
}

// lookup returns the ascending ids of the rows whose indexed columns equal
// the conditions on them. The caller must cover every indexed column (see
// pickIndex) and must not modify the returned slice.
func (ix *index) lookup(conds []resolvedCond) []int64 {
	var buf [keyBufSize]byte
	key := buf[:0]
	for _, col := range ix.cols {
		v, _ := condVal(conds, col)
		key = encodeKey(key, v)
	}
	return ix.ids[string(key)]
}
