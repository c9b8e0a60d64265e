package kb

import (
	"sort"
	"strings"
)

// Node is one knowledge node (Fig. 9): a unique combination of part ID,
// error code and feature set. Features are sorted and duplicate-free.
type Node struct {
	ID        int64
	PartID    string
	ErrorCode string
	Features  []string
}

// CodeCount is an error code with its training-set frequency.
type CodeCount struct {
	Code  string
	Count int
}

// Store is the read interface the classifier and the baselines work
// against. Memory is its implementation, whether trained in place, loaded
// from the database by OpenDB or cut to one shard by Subset; the interface
// is the seam callers wrap (timing, fault injection) without touching the
// knowledge base itself.
type Store interface {
	// NodeCount reports the number of knowledge nodes.
	NodeCount() int
	// KnownPart reports whether any node carries this part ID.
	KnownPart(partID string) bool
	// Candidates returns the neighbor candidate set of §4.3/Fig. 5: nodes
	// with the same part ID sharing at least one feature with the query.
	// If the part ID is unknown, all nodes are returned.
	Candidates(partID string, features []string) []*Node
	// AllNodes returns every node (used by the candidate-set fallback and
	// diagnostics).
	AllNodes() []*Node
	// CodeFrequencies returns the error codes recorded for a part sorted
	// by descending data-bundle frequency (ties by code); for an unknown
	// part it returns global frequencies. This feeds the code-frequency
	// baseline (§5.1).
	CodeFrequencies(partID string) []CodeCount
	// BundleCount reports how many data bundles were added.
	BundleCount() int
}

// Memory is the in-memory knowledge base with inverted indexes for
// candidate retrieval.
type Memory struct {
	nodes   []*Node
	byPart  map[string][]int32
	byPF    map[string][]int32 // part+"\x00"+feature → node indexes
	dedup   map[string]int32   // node signature → index
	freq    map[string]map[string]int
	global  map[string]int
	bundles int
	nextID  int64
}

// NewMemory creates an empty in-memory knowledge base.
func NewMemory() *Memory {
	return &Memory{
		byPart: make(map[string][]int32),
		byPF:   make(map[string][]int32),
		dedup:  make(map[string]int32),
		freq:   make(map[string]map[string]int),
		global: make(map[string]int),
		nextID: 1,
	}
}

// AddBundle records one training data bundle: its code frequency always
// counts, and a knowledge node is created unless an identical configuration
// instance (part, code, features) already exists. Features must be sorted
// and duplicate-free (as produced by Extractor.Features).
func (m *Memory) AddBundle(partID, errorCode string, features []string) *Node {
	m.bundles++
	pf := m.freq[partID]
	if pf == nil {
		pf = make(map[string]int)
		m.freq[partID] = pf
	}
	pf[errorCode]++
	m.global[errorCode]++

	sig := partID + "\x00" + errorCode + "\x00" + strings.Join(features, "\x01")
	if idx, ok := m.dedup[sig]; ok {
		return m.nodes[idx]
	}
	n := &Node{ID: m.nextID, PartID: partID, ErrorCode: errorCode, Features: features}
	m.nextID++
	idx := int32(len(m.nodes))
	m.nodes = append(m.nodes, n)
	m.dedup[sig] = idx
	m.byPart[partID] = append(m.byPart[partID], idx)
	for _, f := range features {
		key := partID + "\x00" + f
		m.byPF[key] = append(m.byPF[key], idx)
	}
	return n
}

// addNode indexes a node that already carries its ID: one loaded from the
// database or kept by a shard's Subset. AddBundle is the training path,
// which mints IDs and counts bundles.
func (m *Memory) addNode(n *Node) {
	idx := int32(len(m.nodes))
	m.nodes = append(m.nodes, n)
	m.dedup[n.PartID+"\x00"+n.ErrorCode+"\x00"+strings.Join(n.Features, "\x01")] = idx
	m.byPart[n.PartID] = append(m.byPart[n.PartID], idx)
	for _, f := range n.Features {
		key := n.PartID + "\x00" + f
		m.byPF[key] = append(m.byPF[key], idx)
	}
	m.nextID = max(m.nextID, n.ID+1)
}

// addCount records count training bundles of errorCode for partID.
func (m *Memory) addCount(partID, errorCode string, count int) {
	pf := m.freq[partID]
	if pf == nil {
		pf = make(map[string]int)
		m.freq[partID] = pf
	}
	pf[errorCode] += count
	m.global[errorCode] += count
	m.bundles += count
}

// NodeCount implements Store.
func (m *Memory) NodeCount() int { return len(m.nodes) }

// BundleCount implements Store.
func (m *Memory) BundleCount() int { return m.bundles }

// KnownPart implements Store.
func (m *Memory) KnownPart(partID string) bool {
	return len(m.byPart[partID]) > 0
}

// Candidates implements Store. Selection happens via the inverted
// part+feature index; each node appears once even when it shares several
// features with the query.
func (m *Memory) Candidates(partID string, features []string) []*Node {
	if !m.KnownPart(partID) {
		return m.AllNodes()
	}
	seen := make(map[int32]bool)
	var out []*Node
	for _, f := range features {
		for _, idx := range m.byPF[partID+"\x00"+f] {
			if !seen[idx] {
				seen[idx] = true
				out = append(out, m.nodes[idx])
			}
		}
	}
	return out
}

// AllNodes implements Store.
func (m *Memory) AllNodes() []*Node {
	return append([]*Node(nil), m.nodes...)
}

// CodeFrequencies implements Store.
func (m *Memory) CodeFrequencies(partID string) []CodeCount {
	src := m.freq[partID]
	if len(src) == 0 {
		src = m.global
	}
	return sortedCounts(src)
}

func sortedCounts(src map[string]int) []CodeCount {
	out := make([]CodeCount, 0, len(src))
	for code, n := range src {
		out = append(out, CodeCount{Code: code, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Code < out[j].Code
	})
	return out
}

// DistinctCodes reports the number of distinct error codes recorded.
func (m *Memory) DistinctCodes() int { return len(m.global) }

var _ Store = (*Memory)(nil)
