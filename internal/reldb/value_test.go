package reldb

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestEncodeKeyOrderInts(t *testing.T) {
	f := func(a, b int64) bool {
		ka := encodeKey(nil, a)
		kb := encodeKey(nil, b)
		return sign(bytes.Compare(ka, kb)) == sign(compareValues(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyOrderFloats(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka := encodeKey(nil, a)
		kb := encodeKey(nil, b)
		return sign(bytes.Compare(ka, kb)) == sign(compareValues(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyOrderStrings(t *testing.T) {
	f := func(a, b string) bool {
		ka := encodeKey(nil, a)
		kb := encodeKey(nil, b)
		return sign(bytes.Compare(ka, kb)) == sign(compareValues(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyOrderBytesWithZeros(t *testing.T) {
	f := func(a, b []byte) bool {
		ka := encodeKey(nil, a)
		kb := encodeKey(nil, b)
		return sign(bytes.Compare(ka, kb)) == sign(compareValues(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Explicit embedded-zero cases (the escape path).
	pairs := [][2][]byte{
		{{0}, {0, 0}},
		{{0, 1}, {0, 0xFF}},
		{{1}, {1, 0}},
		{{}, {0}},
	}
	for _, p := range pairs {
		ka := encodeKey(nil, p[0])
		kb := encodeKey(nil, p[1])
		if sign(bytes.Compare(ka, kb)) != sign(bytes.Compare(p[0], p[1])) {
			t.Errorf("order violated for % x vs % x", p[0], p[1])
		}
	}
}

func TestEncodeKeyNilSortsFirst(t *testing.T) {
	kn := encodeKey(nil, nil)
	for _, v := range []Value{int64(math.MinInt64), -1e308, "", false, []byte{}} {
		if bytes.Compare(kn, encodeKey(nil, v)) >= 0 {
			t.Errorf("nil does not sort before %v", v)
		}
	}
}

func TestEncodeKeyNegativeZero(t *testing.T) {
	a := encodeKey(nil, math.Copysign(0, -1))
	b := encodeKey(nil, 0.0)
	if !bytes.Equal(a, b) {
		t.Error("-0.0 and +0.0 encode differently")
	}
}

func TestValueRoundTripQuick(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool, by []byte) bool {
		if math.IsNaN(fl) {
			return true
		}
		row := Row{i, fl, s, b, by, nil}
		rec := walRecord{Op: opInsert, Table: "t", RowID: 1, Row: row}
		got, err := decodeRecord(bytes.NewReader(encodeRecord(rec)))
		if err != nil {
			return false
		}
		if got.Row[0] != i || got.Row[1] != fl || got.Row[2] != s || got.Row[3] != b || got.Row[5] != nil {
			return false
		}
		return bytes.Equal(got.Row[4].([]byte), by)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoerce(t *testing.T) {
	cases := []struct {
		t    ColType
		in   Value
		want Value
		ok   bool
	}{
		{TInt, 5, int64(5), true},
		{TInt, int64(5), int64(5), true},
		{TInt, "x", nil, false},
		{TFloat, 5, 5.0, true},
		{TFloat, 2.5, 2.5, true},
		{TString, "s", "s", true},
		{TString, 5, nil, false},
		{TBool, true, true, true},
		{TBytes, []byte{1}, []byte{1}, true},
		{TInt, nil, nil, true},
	}
	for i, c := range cases {
		got, err := coerce(c.t, c.in)
		if c.ok != (err == nil) {
			t.Errorf("case %d: err=%v, want ok=%v", i, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if b, isB := c.want.([]byte); isB {
			if !bytes.Equal(got.([]byte), b) {
				t.Errorf("case %d: got %v", i, got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("case %d: got %v want %v", i, got, c.want)
		}
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[string]Value{
		"NULL":    nil,
		"42":      int64(42),
		"'a''b'":  "a'b",
		"TRUE":    true,
		"FALSE":   false,
		"X'00ff'": []byte{0, 0xFF},
	}
	for want, v := range cases {
		if got := FormatValue(v); got != want {
			t.Errorf("FormatValue(%v) = %q, want %q", v, got, want)
		}
	}
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}
