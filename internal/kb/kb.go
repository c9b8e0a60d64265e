package kb

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sort"
	"strings"
	"sync"
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

// Scorer scores a knowledge node against a query from shared, the number
// of distinct query features the node carries, sizeA, the query's feature
// count as passed, and sizeB, the node's. Scores lie in [0, 1], and a node
// that shares nothing scores 0: Score(0, a, b) == 0 for every a and b.
type Scorer interface {
	Score(shared, sizeA, sizeB int) float64
}

// Scored is one ranked knowledge node: its ID, its error code and its
// similarity to the query. The sharded serving tier merges these across
// partitions before collapsing them to codes; node IDs are global (Subset
// preserves them), so the merge ranks exactly like a single store.
type Scored struct {
	ID    int64
	Code  string
	Score float64
}

// CompareScored is the ranking's total order: score descending, then error
// code, then node ID. Node IDs are unique, so no two nodes tie and any
// ranking under it is reproducible bit for bit.
func CompareScored(a, b Scored) int {
	if a.Score != b.Score {
		return cmp.Compare(b.Score, a.Score)
	}
	if c := strings.Compare(a.Code, b.Code); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
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
	// If the part ID is unknown, all nodes are returned. The unsorted
	// candidate-set baseline reads it; the classifier ranks through Rank.
	Candidates(partID string, features []string) []*Node
	// Rank is the classifier's one ranking entry point. It scores every
	// node of the candidate set against the query with sim.Score(shared,
	// len(features), len(node.Features)), where shared counts the distinct
	// query features the node carries, and returns the cut best in
	// CompareScored order together with the candidate set's size.
	Rank(partID string, features []string, sim Scorer, cut int) (nodes []Scored, candidates int)
	// CodeFrequencies returns the error codes recorded for a part sorted
	// by descending data-bundle frequency (ties by code); for an unknown
	// part it returns global frequencies. This feeds the code-frequency
	// baseline (§5.1).
	CodeFrequencies(partID string) []CodeCount
}

// Memory is the in-memory knowledge base. Its one index interns part IDs
// and features to dense IDs as nodes are indexed, and keeps for every
// (part, feature) pair the posting list of the part's nodes carrying the
// feature; Rank scores a query while it walks those lists.
type Memory struct {
	nodes    []*Node
	parts    map[string]int32 // part ID → dense part ID
	features map[string]int32 // feature → dense feature ID, indexing postings
	postings [][]posting      // per feature ID, one list per part carrying it, ascending by part
	dedup    map[string]int32 // node signature (see signature) → node index
	sig      []byte           // the build path's signature buffer
	freq     map[string]map[string]int
	global   map[string]int
	bundles  int
	nextID   int64
}

// posting lists the indexes, ascending, of one part's nodes that carry one
// feature.
type posting struct {
	part  int32
	nodes []int32
}

// byPart orders a feature's posting lists by part ID.
func byPart(p posting, part int32) int { return cmp.Compare(p.part, part) }

// NewMemory creates an empty in-memory knowledge base.
func NewMemory() *Memory {
	return &Memory{
		parts:    make(map[string]int32),
		features: make(map[string]int32),
		dedup:    make(map[string]int32),
		freq:     make(map[string]map[string]int),
		global:   make(map[string]int),
		nextID:   1,
	}
}

// AddBundle records one training data bundle: its code frequency always
// counts, and a knowledge node is created unless an identical configuration
// instance (part, code, features) already exists. Features must be sorted
// and duplicate-free (as produced by Extractor.Features).
func (m *Memory) AddBundle(partID, errorCode string, features []string) *Node {
	m.addCount(partID, errorCode, 1)
	sig := m.signature(partID, errorCode, features)
	if idx, ok := m.dedup[string(sig)]; ok {
		return m.nodes[idx]
	}
	n := &Node{ID: m.nextID, PartID: partID, ErrorCode: errorCode, Features: features}
	m.index(n, sig)
	return n
}

// addNode indexes a node that already carries its ID: one loaded from the
// database or kept by a shard's Subset. AddBundle is the training path,
// which mints IDs, counts bundles and skips duplicates.
func (m *Memory) addNode(n *Node) {
	m.index(n, m.signature(n.PartID, n.ErrorCode, n.Features))
}

// signature interns a configuration instance's part and features and
// returns its dedup key: the part's ID, the feature count and each
// feature's ID, four bytes apiece, then the error code. The key lives in
// m.sig until the next call.
func (m *Memory) signature(partID, errorCode string, features []string) []byte {
	part, ok := m.parts[partID]
	if !ok {
		part = int32(len(m.parts))
		m.parts[partID] = part
	}
	b := binary.LittleEndian.AppendUint32(m.sig[:0], uint32(part))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(features)))
	for _, f := range features {
		id, ok := m.features[f]
		if !ok {
			id = int32(len(m.postings))
			m.features[f] = id
			m.postings = append(m.postings, nil)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	m.sig = append(b, errorCode...)
	return m.sig
}

// index is the one way a node enters the knowledge base, whether AddBundle
// trained it or OpenDB and Subset copied it: it appends n, files it under
// sig, n's signature, and adds it to the posting list of its part for each
// of its features, reading their IDs back from sig.
func (m *Memory) index(n *Node, sig []byte) {
	idx := int32(len(m.nodes))
	m.nodes = append(m.nodes, n)
	m.dedup[string(sig)] = idx
	part := int32(binary.LittleEndian.Uint32(sig))
	for i := range n.Features {
		f := binary.LittleEndian.Uint32(sig[8+4*i:])
		lists := m.postings[f]
		j, ok := slices.BinarySearchFunc(lists, part, byPart)
		if !ok {
			lists = slices.Insert(lists, j, posting{part: part})
			m.postings[f] = lists
		}
		lists[j].nodes = append(lists[j].nodes, idx)
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

// BundleCount reports how many data bundles were added.
func (m *Memory) BundleCount() int { return m.bundles }

// KnownPart implements Store.
func (m *Memory) KnownPart(partID string) bool {
	_, ok := m.parts[partID]
	return ok
}

// scratch is one query's workspace: a shared-feature count per node index,
// zero between queries; the node indexes the query touched, in first-touch
// order; the query's feature IDs; and the ranking under selection, which
// Rank grows to the largest cut it has served.
type scratch struct {
	shared  []int32
	touched []int32
	query   []int32
	top     []ranked
}

// ranked is a node under selection: its index and its score. The
// selection orders these and makes a Scored only of each node it keeps.
type ranked struct {
	score float64
	idx   int32
}

// scratchPool recycles query workspaces across every Memory. It is a
// package variable, not a Memory field: the runtime keeps a pool it has
// used reachable until the second garbage collection after, so a pool
// field would keep a dropped Memory alive that long.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// acquire takes a workspace for a knowledge base of nodes nodes and a query
// of n features. A workspace grows to the largest knowledge base and query
// it has served, so a warm one allocates nothing.
func acquire(nodes, n int) *scratch {
	s := scratchPool.Get().(*scratch)
	if len(s.shared) < nodes {
		s.shared = make([]int32, nodes)
		s.touched = make([]int32, nodes)
	}
	if len(s.query) < n {
		s.query = make([]int32, n)
	}
	return s
}

// release zeroes the counts of the first touched nodes s.touched lists and
// returns s to the pool.
func release(s *scratch, touched int) {
	for _, idx := range s.touched[:touched] {
		s.shared[idx] = 0
	}
	scratchPool.Put(s)
}

// queryIDs writes the IDs of the known features among features into ids,
// in query order, and returns them; unknown features share nothing.
func (m *Memory) queryIDs(ids []int32, features []string) []int32 {
	n := 0
	for _, f := range features {
		if id, ok := m.features[f]; ok {
			ids[n] = id
			n++
		}
	}
	return ids[:n]
}

// count walks the posting lists of the feature IDs ids, only part's when
// known is set and every part's otherwise, adding one to each listed
// node's shared count. It records each node at its first touch in
// s.touched and returns how many it touched.
func (m *Memory) count(s *scratch, part int32, known bool, ids []int32) int {
	touched := 0
	for _, f := range ids {
		lists := m.postings[f]
		if known {
			i, ok := slices.BinarySearchFunc(lists, part, byPart)
			if !ok {
				continue
			}
			lists = lists[i : i+1]
		}
		for _, l := range lists {
			for _, idx := range l.nodes {
				if s.shared[idx] == 0 {
					s.touched[touched] = idx
					touched++
				}
				s.shared[idx]++
			}
		}
	}
	return touched
}

// Candidates implements Store. It walks the part's posting list of each
// query feature in query order, so each node appears once, at its first
// match.
func (m *Memory) Candidates(partID string, features []string) []*Node {
	part, ok := m.parts[partID]
	if !ok {
		return m.AllNodes()
	}
	s := acquire(len(m.nodes), len(features))
	touched := m.count(s, part, true, m.queryIDs(s.query, features))
	var out []*Node
	for _, idx := range s.touched[:touched] {
		out = append(out, m.nodes[idx])
	}
	release(s, touched)
	return out
}

// Rank implements Store in one pass over the postings: it counts the
// shared features of every node on the lists of the query's distinct
// known features in a pooled counter, then scores only the nodes it
// touched, keeping the cut best by bounded insertion. For an unknown part
// every node is a candidate: the nodes that share nothing score 0 under
// Scorer's contract and take the places left, in (code, ID) order, without
// being scored. The selection moves (score, index) pairs in the pooled
// workspace; only the nodes kept become Scored values.
//
//qatk:hotpath
func (m *Memory) Rank(partID string, features []string, sim Scorer, cut int) ([]Scored, int) {
	part, known := m.parts[partID]
	s := acquire(len(m.nodes), len(features))
	ids := m.queryIDs(s.query, features)
	slices.Sort(ids)
	touched := m.count(s, part, known, slices.Compact(ids))
	candidates := touched
	if !known {
		candidates = len(m.nodes)
	}
	cut = min(max(cut, 0), candidates)
	if cap(s.top) < cut {
		//qatk:allowalloc the pooled ranking grows to the largest cut its workspace has served
		s.top = make([]ranked, 0, cut)
	}
	top := s.top[:0]
	for _, idx := range s.touched[:touched] {
		n := m.nodes[idx]
		score := sim.Score(int(s.shared[idx]), len(features), len(n.Features))
		// Once the ranking is full, most nodes score below its worst.
		if len(top) == cut && (cut == 0 || score < top[cut-1].score) {
			continue
		}
		top = m.offer(top, cut, ranked{score, idx})
	}
	// A node that shares nothing scores 0, so it can only take a place
	// that is free or held by a node scoring 0 too.
	if !known && cut > 0 && (len(top) < cut || top[len(top)-1].score <= 0) {
		for idx := range m.nodes {
			if s.shared[idx] == 0 {
				top = m.offer(top, cut, ranked{idx: int32(idx)})
			}
		}
	}
	//qatk:allowalloc the ranking is the function's product, at most cut nodes long
	out := make([]Scored, len(top))
	for i, r := range top {
		n := m.nodes[r.idx]
		out[i] = Scored{ID: n.ID, Code: n.ErrorCode, Score: r.score}
	}
	release(s, touched)
	return out, candidates
}

// offer inserts c into top, a ranking in CompareScored order holding at
// most cut nodes; when top is full the worst node drops out, or c does
// not get in.
func (m *Memory) offer(top []ranked, cut int, c ranked) []ranked {
	n := len(top)
	if n == cut {
		if n == 0 || !m.before(c, top[n-1]) {
			return top
		}
		n--
	}
	// top is in order, so c goes after every node scoring more and among
	// the nodes it ties with by code and ID.
	i := n
	for i > 0 && top[i-1].score < c.score {
		i--
	}
	for i > 0 && top[i-1].score == c.score && m.before(c, top[i-1]) {
		i--
	}
	top = top[:n+1]
	copy(top[i+1:], top[i:n])
	top[i] = c
	return top
}

// before reports whether a ranks before b under CompareScored: by score,
// then by their nodes' error codes and IDs.
func (m *Memory) before(a, b ranked) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	na, nb := m.nodes[a.idx], m.nodes[b.idx]
	if c := strings.Compare(na.ErrorCode, nb.ErrorCode); c != 0 {
		return c < 0
	}
	return na.ID < nb.ID
}

// AllNodes returns every node (the unknown-part candidate set and
// diagnostics).
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
