// Package reldb implements the embedded relational database used by the
// QATK analytics toolkit for raw report data, knowledge bases and
// classification results (paper §4.5.1).
//
// The engine is deliberately small: typed schemas, primary keys, hash
// indexes, WHERE clauses that are conjunctions of equalities (an index
// serves one when each of its columns has an equality; anything else
// scans in row-id order), ORDER BY/LIMIT, single-writer transactions,
// and write-ahead logging with snapshot checkpoints. It stores
// knowledge-base instances "on disk with on-the-fly access", which is how
// the paper addresses the memory weakness of instance-based kNN (§2.2).
package reldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ColType identifies the declared type of a column.
type ColType uint8

// Column types supported by the engine.
const (
	TInt ColType = iota + 1
	TFloat
	TString
	TBool
	TBytes
)

// String returns the SQL name of the type.
func (t ColType) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "TEXT"
	case TBool:
		return "BOOL"
	case TBytes:
		return "BLOB"
	default:
		return fmt.Sprintf("ColType(%d)", uint8(t))
	}
}

// Value is a dynamically typed cell value. The concrete type must be one of
// int64, float64, string, bool, []byte, or nil.
type Value = any

// Row is one tuple. Cells are positionally aligned with the table schema.
type Row []Value

// Clone returns a deep copy of the row ([]byte cells are copied).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	for i, v := range r {
		if b, ok := v.([]byte); ok {
			cp := make([]byte, len(b))
			copy(cp, b)
			out[i] = cp
			continue
		}
		out[i] = v
	}
	return out
}

// coerce converts compatible Go values to the canonical cell representation
// for the given column type. int/int32 become int64, float32 becomes
// float64; everything else must already match.
func coerce(t ColType, v Value) (Value, error) {
	if v == nil {
		return nil, nil
	}
	switch t {
	case TInt:
		switch x := v.(type) {
		case int64:
			return x, nil
		case int:
			return int64(x), nil
		case int32:
			return int64(x), nil
		case uint32:
			return int64(x), nil
		}
	case TFloat:
		switch x := v.(type) {
		case float64:
			return x, nil
		case float32:
			return float64(x), nil
		case int64:
			return float64(x), nil
		case int:
			return float64(x), nil
		}
	case TString:
		if x, ok := v.(string); ok {
			return x, nil
		}
	case TBool:
		if x, ok := v.(bool); ok {
			return x, nil
		}
	case TBytes:
		if x, ok := v.([]byte); ok {
			return x, nil
		}
	}
	return nil, fmt.Errorf("reldb: value %v (%T) not assignable to column type %s", v, v, t)
}

// compareValues orders two cell values of the same column type.
// nil sorts before every non-nil value.
func compareValues(a, b Value) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		default:
			return 1
		}
	}
	switch x := a.(type) {
	case int64:
		y := b.(int64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case float64:
		y := b.(float64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case string:
		return strings.Compare(x, b.(string))
	case bool:
		y := b.(bool)
		switch {
		case !x && y:
			return -1
		case x && !y:
			return 1
		}
		return 0
	case []byte:
		return bytes.Compare(x, b.([]byte))
	}
	panic(fmt.Sprintf("reldb: compareValues on unsupported type %T", a))
}

// encodeKey appends an order-preserving binary encoding of v to dst.
// The encoding is used for index keys: for any two values a, b of the same
// type, bytes.Compare(encodeKey(nil,a), encodeKey(nil,b)) has the same sign
// as compareValues(a, b). Each encoded value is prefixed with a type tag so
// nil (tag 0) sorts first.
func encodeKey(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, 0)
	case int64:
		dst = append(dst, 1)
		var buf [8]byte
		// Flip the sign bit so negative numbers sort before positive.
		binary.BigEndian.PutUint64(buf[:], uint64(x)^(1<<63))
		return append(dst, buf[:]...)
	case float64:
		dst = append(dst, 2)
		if x == 0 {
			x = 0 // normalize -0.0 so it encodes identically to +0.0
		}
		bits := math.Float64bits(x)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: invert all bits
		} else {
			bits |= 1 << 63 // non-negative: set sign bit
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], bits)
		return append(dst, buf[:]...)
	case bool:
		dst = append(dst, 3)
		if x {
			return append(dst, 1)
		}
		return append(dst, 0)
	case string:
		dst = append(dst, 4)
		return appendEscaped(dst, []byte(x))
	case []byte:
		dst = append(dst, 5)
		return appendEscaped(dst, x)
	}
	panic(fmt.Sprintf("reldb: encodeKey on unsupported type %T", v))
}

// appendEscaped writes b with 0x00 escaped as 0x00 0xFF and a 0x00 0x01
// terminator, preserving lexicographic order across variable lengths.
func appendEscaped(dst, b []byte) []byte {
	for _, c := range b {
		if c == 0 {
			dst = append(dst, 0, 0xFF)
			continue
		}
		dst = append(dst, c)
	}
	return append(dst, 0, 1)
}

// FormatValue renders a cell as a SQL-ish literal, for diagnostics.
func FormatValue(v Value) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return "'" + strings.ReplaceAll(x, "'", "''") + "'"
	case bool:
		if x {
			return "TRUE"
		}
		return "FALSE"
	case []byte:
		return fmt.Sprintf("X'%x'", x)
	}
	return fmt.Sprintf("%v", v)
}
