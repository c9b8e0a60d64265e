package kb

import "hash/fnv"

// Part-ID partitioning for the sharded serving tier. The paper's candidate
// selection (§4.3/Fig. 5) keys on part ID, so a knowledge base splits
// cleanly along part boundaries: every node, inverted-index entry and
// code-frequency row of one part lands on exactly one shard, and a query
// for a known part is answered completely by the shard owning that part.

// PartOwner returns the owning shard of a part ID under n-way partitioning
// (FNV-1a; stable across processes and restarts, so routing tables never
// need to be persisted). n <= 1 always owns everything at shard 0.
func PartOwner(partID string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(partID))
	return int(h.Sum32() % uint32(n))
}

// Subset filters the slice of src owned by shard `shard` of `n` into a new
// Memory. Node IDs are preserved, so rankings merged across subsets
// tie-break exactly like a ranking over the whole knowledge base — the
// property the router's deterministic merge relies on. Code frequencies
// are restricted to the owned parts, so BundleCount reports the owned
// share and the unknown-part fallback aggregates the shard's view of the
// world. With n <= 1 the one shard owns everything and Subset returns src.
func Subset(src *Memory, shard, n int) *Memory {
	if n <= 1 {
		return src
	}
	sub := NewMemory()
	for _, node := range src.nodes {
		if PartOwner(node.PartID, n) == shard {
			sub.addNode(node)
		}
	}
	for part, counts := range src.freq {
		if PartOwner(part, n) != shard {
			continue
		}
		for code, c := range counts {
			sub.addCount(part, code, c)
		}
	}
	return sub
}
