// Package trie implements the token-sequence trie that backs the optimized
// taxonomy annotator (paper §4.5.3): "We represent the taxonomy as a trie
// data structure, a tree structure which allows for fast search and
// retrieval." Keys are sequences of lowercase word tokens, so multiword
// taxonomy terms ("squeaking noise") occupy one path with one payload.
package trie

// Trie maps token sequences to integer payloads (concept IDs).
type Trie struct {
	root *node
	size int
}

type node struct {
	children map[string]*node
	value    int
	terminal bool
}

// New creates an empty trie.
func New() *Trie {
	return &Trie{root: &node{}}
}

// Len reports the number of stored token sequences.
func (t *Trie) Len() int { return t.size }

// Insert stores value under the token sequence. Re-inserting an existing
// sequence overwrites its value. Empty sequences are ignored.
func (t *Trie) Insert(tokens []string, value int) {
	if len(tokens) == 0 {
		return
	}
	n := t.root
	for _, tok := range tokens {
		if n.children == nil {
			n.children = make(map[string]*node, 2)
		}
		child, ok := n.children[tok]
		if !ok {
			child = &node{}
			n.children[tok] = child
		}
		n = child
	}
	if !n.terminal {
		t.size++
	}
	n.terminal = true
	n.value = value
}

// Get returns the value stored under exactly the token sequence.
func (t *Trie) Get(tokens []string) (int, bool) {
	n := t.root
	for _, tok := range tokens {
		child, ok := n.children[tok]
		if !ok {
			return 0, false
		}
		n = child
	}
	if !n.terminal {
		return 0, false
	}
	return n.value, true
}

// LongestMatch finds the longest stored sequence that is a prefix of
// the n-token sequence whose i-th token is token(i), from token start
// on. It returns the payload and the number of tokens matched (0 if
// nothing matches at start). This is the left-bounded greedy
// longest-match step of the annotator: shorter matches fully enclosed by
// the returned one are never reported. Taking the tokens as a function
// lets the annotator match its token layer without copying it.
func (t *Trie) LongestMatch(n int, token func(i int) string, start int) (value, length int) {
	node := t.root
	bestLen := 0
	bestVal := 0
	for i := start; i < n; i++ {
		child, ok := node.children[token(i)]
		if !ok {
			break
		}
		node = child
		if node.terminal {
			bestLen = i - start + 1
			bestVal = node.value
		}
	}
	return bestVal, bestLen
}

// Walk visits every stored sequence with its value, in unspecified order.
func (t *Trie) Walk(fn func(tokens []string, value int)) {
	var rec func(n *node, prefix []string)
	rec = func(n *node, prefix []string) {
		if n.terminal {
			fn(append([]string(nil), prefix...), n.value)
		}
		for tok, child := range n.children {
			rec(child, append(prefix, tok))
		}
	}
	rec(t.root, nil)
}
