package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over worker names. Benchmarks hash onto
// the ring to pick the workers holding (or owed) their trained models:
// placement is stable across sweeps, spreads benchmarks evenly via virtual
// nodes, and moves only ~1/N of benchmarks when a worker joins or leaves —
// so a mostly-stable fleet keeps its warm models useful.
//
// The ring is keyed by name (not index) and rebuilds incrementally: a
// join inserts only the new worker's virtual nodes and a leave removes
// only the departed worker's, so dynamic fleet membership never disturbs
// the placement of benchmarks homed on the survivors.
type ring struct {
	points  []ringPoint // sorted by hash
	workers map[string]bool
}

type ringPoint struct {
	hash   uint64
	worker string
}

// virtualNodes is each worker's point count on the ring: it balances
// placement within a few percent for small fleets without making ring
// construction or lookup noticeable.
const virtualNodes = 64

func newRing() *ring {
	return &ring{workers: make(map[string]bool)}
}

// add inserts one worker's virtual nodes; adding a present worker is a
// no-op. Only the new points move benchmark homes, and every home they
// take was the new worker's to claim — survivors never trade homes.
func (r *ring) add(name string) {
	if r.workers[name] {
		return
	}
	r.workers[name] = true
	for v := 0; v < virtualNodes; v++ {
		r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("%s#%d", name, v)), worker: name})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].worker < r.points[b].worker
	})
}

// remove deletes one worker's virtual nodes; removing an absent worker is
// a no-op. The surviving points keep their relative order, so only the
// departed worker's homes move (to their next clockwise survivor).
func (r *ring) remove(name string) {
	if !r.workers[name] {
		return
	}
	delete(r.workers, name)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.worker != name {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// size reports the worker count on the ring.
func (r *ring) size() int { return len(r.workers) }

func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the murmur3 finalizer. Raw FNV of similar keys ("w0#1" vs
// "w0#2", "gcc" vs "gap") clusters in the low bits, which would bunch a
// worker's virtual nodes into a few arcs and pile benchmark homes onto one
// worker; the finalizer's avalanche spreads them uniformly.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// order returns every worker exactly once, clockwise from the key's
// position on the ring: order[0] is the key's home worker, the rest are
// its fallbacks in preference order. Deterministic in the key and the
// ring, so coordinator restarts and retries agree on placement.
func (r *ring) order(key string) []string {
	out := make([]string, 0, len(r.workers))
	seen := make(map[string]bool, len(r.workers))
	if len(r.points) == 0 {
		return out
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hashKey(key) })
	for i := 0; i < len(r.points) && len(out) < len(r.workers); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.worker] {
			seen[p.worker] = true
			out = append(out, p.worker)
		}
	}
	return out
}
