package trie

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestInsertGet(t *testing.T) {
	tr := New()
	tr.Insert([]string{"fender"}, 1)
	tr.Insert([]string{"mud", "guard"}, 1)
	tr.Insert([]string{"squeaking", "noise"}, 2)

	if v, ok := tr.Get([]string{"fender"}); !ok || v != 1 {
		t.Fatalf("get fender = %d,%v", v, ok)
	}
	if v, ok := tr.Get([]string{"mud", "guard"}); !ok || v != 1 {
		t.Fatalf("get mud guard = %d,%v", v, ok)
	}
	if _, ok := tr.Get([]string{"mud"}); ok {
		t.Fatal("prefix reported as stored sequence")
	}
	if _, ok := tr.Get([]string{"guard"}); ok {
		t.Fatal("suffix reported as stored sequence")
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestInsertOverwriteAndEmpty(t *testing.T) {
	tr := New()
	tr.Insert([]string{"x"}, 1)
	tr.Insert([]string{"x"}, 2)
	if v, _ := tr.Get([]string{"x"}); v != 2 {
		t.Fatalf("overwrite failed: %d", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
	tr.Insert(nil, 9)
	if tr.Len() != 1 {
		t.Fatal("empty sequence stored")
	}
}

// longestMatch is LongestMatch over a slice of tokens.
func longestMatch(tr *Trie, tokens []string, start int) (value, length int) {
	return tr.LongestMatch(len(tokens), func(i int) string { return tokens[i] }, start)
}

func TestLongestMatch(t *testing.T) {
	tr := New()
	tr.Insert([]string{"noise"}, 1)
	tr.Insert([]string{"squeaking", "noise"}, 2)
	tr.Insert([]string{"squeaking", "noise", "rear"}, 3)

	toks := strings.Fields("loud squeaking noise rear left")
	v, l := longestMatch(tr, toks, 1)
	if v != 3 || l != 3 {
		t.Fatalf("match = %d,%d; want 3,3", v, l)
	}
	// At "noise" position the single-token entry matches.
	v, l = longestMatch(tr, toks, 2)
	if v != 1 || l != 1 {
		t.Fatalf("match = %d,%d; want 1,1", v, l)
	}
	// No match at "loud".
	if _, l := longestMatch(tr, toks, 0); l != 0 {
		t.Fatalf("unexpected match length %d", l)
	}
	// Start beyond the end.
	if _, l := longestMatch(tr, toks, 99); l != 0 {
		t.Fatalf("out-of-range match length %d", l)
	}
}

func TestLongestMatchPrefersLongerEvenWithGapsInTerminals(t *testing.T) {
	tr := New()
	// "a b c" stored but NOT "a b": the walk must still find "a b c".
	tr.Insert([]string{"a"}, 1)
	tr.Insert([]string{"a", "b", "c"}, 3)
	v, l := longestMatch(tr, []string{"a", "b", "c", "d"}, 0)
	if v != 3 || l != 3 {
		t.Fatalf("match = %d,%d; want 3,3", v, l)
	}
	// When the long path dead-ends, fall back to the shorter terminal.
	v, l = longestMatch(tr, []string{"a", "b", "x"}, 0)
	if v != 1 || l != 1 {
		t.Fatalf("match = %d,%d; want 1,1", v, l)
	}
}

func TestWalk(t *testing.T) {
	tr := New()
	tr.Insert([]string{"a"}, 1)
	tr.Insert([]string{"b", "c"}, 2)
	var got []string
	tr.Walk(func(tokens []string, value int) {
		got = append(got, strings.Join(tokens, " "))
	})
	sort.Strings(got)
	if !reflect.DeepEqual(got, []string{"a", "b c"}) {
		t.Fatalf("walk = %v", got)
	}
}

// Property: anything inserted is found by Get and by LongestMatch at the
// start of its own sequence.
func TestInsertLookupProperty(t *testing.T) {
	f := func(words [][3]uint8, value int) bool {
		tr := New()
		var seqs [][]string
		for _, w := range words {
			seq := []string{
				string(rune('a' + w[0]%16)),
				string(rune('a' + w[1]%16)),
				string(rune('a' + w[2]%16)),
			}
			tr.Insert(seq, value)
			seqs = append(seqs, seq)
		}
		for _, seq := range seqs {
			if v, ok := tr.Get(seq); !ok || v != value {
				return false
			}
			// The full inserted sequence is terminal, so the longest match
			// over exactly that sequence is the sequence itself.
			if v, l := longestMatch(tr, seq, 0); v != value || l != len(seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
