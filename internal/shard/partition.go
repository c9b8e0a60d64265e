package shard

import "repro/internal/kb"

// PartitionStores splits one knowledge base into n part-owned partitions
// (kb.Subset per shard), the Stores slice a Router serves. Node IDs are
// preserved, which is what makes the router's merge rank exactly like the
// unsharded classifier.
func PartitionStores(src *kb.Memory, n int) []kb.Store {
	if n <= 1 {
		n = 1
	}
	out := make([]kb.Store, n)
	for i := 0; i < n; i++ {
		out[i] = kb.Subset(src, i, n)
	}
	return out
}
