package router

import (
	"fmt"
	"sort"
)

// The consistent-hash ring. Each backend owns vnodes points on a
// 64-bit circle; a request's shard key hashes to a point and walks
// clockwise collecting distinct backends — the first is its home
// shard, the rest are the hedge/retry preference order. Because the
// walk depends only on (backend set, key), every coparouter replica
// with the same backend list routes a key identically, and adding or
// removing one backend moves only ~1/N of the key space (the property
// that keeps N-1 shards' caches warm through a topology change).
//
// The hash is FNV-1a over the key bytes — not the seeded rng the
// simulation uses, deliberately: routing must be stable across
// processes and restarts, never per-run.

// defaultVnodes balances ring balance against build cost: at 128
// points per backend, shard occupancy stays within ~35% of the mean
// for small backend pools (TestRingBalance pins this).
const defaultVnodes = 128

type ring struct {
	points []ringPoint // sorted by hash
	n      int         // number of distinct backends
}

type ringPoint struct {
	hash  uint64
	owner int // backend index
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv1a(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return mix64(h)
}

// mix64 is the splitmix64/murmur3 finalizer. Raw FNV-1a has weak
// avalanche over near-identical inputs — vnode labels differ only in
// their numeric suffix, which without this step clusters ring points
// badly enough to skew shard occupancy ~2.5× (TestRingBalance).
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// buildRing places vnodes points per backend id on the circle.
func buildRing(ids []string, vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	r := &ring{n: len(ids), points: make([]ringPoint, 0, len(ids)*vnodes)}
	for i, id := range ids {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: fnv1a(fmt.Sprintf("%s#%d", id, v)), owner: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// preference returns every backend index, deduplicated, in clockwise
// ring order starting at key's hash: element 0 is the key's home
// shard, element 1 the first hedge/failover target, and so on.
func (r *ring) preference(key string) []int {
	if r.n == 0 || len(r.points) == 0 {
		return nil
	}
	h := fnv1a(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	for i := 0; i < len(r.points) && len(out) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.owner] {
			seen[p.owner] = true
			out = append(out, p.owner)
		}
	}
	return out
}
