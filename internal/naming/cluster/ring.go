package cluster

import (
	"hash/fnv"
	"sort"
)

// vnodesPerShard is the number of ring points each shard owns. More
// points flatten the keyspace imbalance between shards; 64 keeps the
// worst shard within a few percent of the mean for realistic shard
// counts while the whole ring stays a few KiB.
const vnodesPerShard = 64

// Ring is a consistent-hash ring partitioning agent ids into shards. It
// is immutable after construction and deterministic for a given shard
// count, so every node and client computes an identical partition with no
// coordination.
//
// Consistent hashing is used for its smoothness property: growing the
// cluster from N to N+1 shards remaps only ~1/(N+1) of the agent ids,
// which bounds the re-registration churn a future resharding would cause.
type Ring struct {
	shards int
	points []ringPoint
}

type ringPoint struct {
	h     uint64
	shard int
}

// NewRing builds the ring for the given shard count (minimum 1).
func NewRing(shards int) *Ring {
	if shards < 1 {
		shards = 1
	}
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*vnodesPerShard)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodesPerShard; v++ {
			r.points = append(r.points, ringPoint{h: mix64(uint64(s)<<32 | uint64(v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].h < r.points[j].h })
	return r
}

// mix64 is the splitmix64 finalizer. FNV of short, structured inputs
// (vnode indexes, "agent-<n>" ids) leaves its output clustered in narrow
// bands of the 64-bit space, which makes a consistent-hash ring wildly
// unbalanced; the finalizer's avalanche spreads every input bit across
// the whole word.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ShardOf maps an agent id to its owning shard: the id hashes to a point
// on the ring and the next shard point clockwise owns it.
func (r *Ring) ShardOf(agentID string) int {
	h := fnv.New64a()
	h.Write([]byte(agentID))
	key := mix64(h.Sum64())
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}
