package explore

import (
	"slices"
	"sort"
)

// TopK is a streaming Collector that retains the k best feasible
// candidates by one objective (lower is better), so constrained selection
// over a million-design sweep holds k candidates alive instead of all of
// them. Ties break towards the lower design index, which makes the
// result deterministic no matter how a parallel sweep interleaves.
type TopK struct {
	objective   int
	k           int
	constraints []Constraint

	seen     int
	feasible int
	heap     []topkEntry // max-heap: worst retained candidate at the root
}

type topkEntry struct {
	c     Candidate
	index int
}

// NewTopK builds a collector keeping the k minimisers of the given
// objective among candidates satisfying every constraint.
func NewTopK(k, objective int, constraints []Constraint) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{objective: objective, k: k, constraints: constraints}
}

// worse orders heap entries: higher score first, then higher index.
func (t *TopK) worse(a, b topkEntry) bool {
	sa, sb := a.c.Scores[t.objective], b.c.Scores[t.objective]
	if sa != sb {
		return sa > sb
	}
	return a.index > b.index
}

// Collect offers one candidate. It implements Collector.
func (t *TopK) Collect(index int, c Candidate) {
	t.seen++
	for _, con := range t.constraints {
		if c.Scores[con.Objective] > con.Max {
			return
		}
	}
	t.feasible++
	t.insert(topkEntry{c: c, index: index})
}

// insert offers one already-feasible entry to the bounded heap. The
// entry's Scores may be caller scratch (see Collector), so retained
// entries get their own copy; once the heap is full, each accepted entry
// reuses the evicted root's buffer, keeping steady-state collection
// allocation-free.
func (t *TopK) insert(e topkEntry) {
	if len(t.heap) < t.k {
		e.c.Scores = append([]float64(nil), e.c.Scores...)
		t.heap = append(t.heap, e)
		t.siftUp(len(t.heap) - 1)
		return
	}
	if t.worse(t.heap[0], e) {
		e.c.Scores = append(t.heap[0].c.Scores[:0], e.c.Scores...)
		t.heap[0] = e
		t.siftDown(0)
	}
}

// Merge folds another collector's retained candidates and counters into t,
// so a sweep can be partitioned into shards, collected per shard, and
// merged: top-K selection is associative (the global top K is a subset of
// the union of shard top Ks), so the merged result equals collecting the
// whole sweep into one TopK — exactly, provided the shards' candidate
// indexes form a consistent total order across shards: distinct, and
// ordering any two candidates the same way global design indexes would.
// Global design indexes satisfy this directly; so does the cluster
// transports' shard-start-plus-rank tagging (ranks are order-preserving
// within a shard and shard ranges do not overlap). Both collectors must
// have been built with the same k, objective, and constraints; o must not
// be t.
func (t *TopK) Merge(o *TopK) {
	if o.k != t.k || o.objective != t.objective || len(o.constraints) != len(t.constraints) {
		panic("explore: merging TopK collectors with different selection rules")
	}
	for i, con := range t.constraints {
		if o.constraints[i] != con {
			panic("explore: merging TopK collectors with different constraints")
		}
	}
	t.seen += o.seen
	t.feasible += o.feasible
	for _, e := range o.heap {
		t.insert(e)
	}
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.worse(t.heap[i], t.heap[parent]) {
			return
		}
		t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
		i = parent
	}
}

func (t *TopK) siftDown(i int) {
	for {
		worst := i
		for _, child := range []int{2*i + 1, 2*i + 2} {
			if child < len(t.heap) && t.worse(t.heap[child], t.heap[worst]) {
				worst = child
			}
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

// Results returns the retained candidates, best first. Scores are deep
// copies: the collector recycles its internal buffers as collection
// continues, so snapshots taken mid-sweep must not alias them.
func (t *TopK) Results() []Candidate {
	entries := append([]topkEntry(nil), t.heap...)
	sort.Slice(entries, func(a, b int) bool { return t.worse(entries[b], entries[a]) })
	out := make([]Candidate, len(entries))
	for i, e := range entries {
		out[i] = Candidate{Config: e.c.Config, Scores: append([]float64(nil), e.c.Scores...)}
	}
	return out
}

// IndexedEntry is one retained candidate together with its position in
// the original design list — the replication form of a TopK snapshot.
// Results drops indices, but selection tie-breaks on them, so a
// snapshot that will later re-enter a collector via Collect (job
// adoption) must carry them to stay bit-identical with an uninterrupted
// run.
type IndexedEntry struct {
	Index     int
	Candidate Candidate
}

// Entries returns the retained candidates with their original design
// indices, best first. Scores are deep copies, like Results.
func (t *TopK) Entries() []IndexedEntry {
	entries := append([]topkEntry(nil), t.heap...)
	sort.Slice(entries, func(a, b int) bool { return t.worse(entries[b], entries[a]) })
	out := make([]IndexedEntry, len(entries))
	for i, e := range entries {
		out[i] = IndexedEntry{
			Index:     e.index,
			Candidate: Candidate{Config: e.c.Config, Scores: append([]float64(nil), e.c.Scores...)},
		}
	}
	return out
}

// Seen returns how many candidates were offered.
func (t *TopK) Seen() int { return t.seen }

// Feasible returns how many offered candidates satisfied the constraints.
func (t *TopK) Feasible() int { return t.feasible }

// FrontierCollector is a streaming Collector that maintains the Pareto
// frontier incrementally: each arriving candidate is dropped if a
// retained one dominates it, and evicts any retained candidates it
// dominates. The non-dominated set is unique, so the result is
// independent of arrival order. Memory stays proportional to the
// frontier, not the sweep.
//
// It is also a Screener: a candidate a retained one strictly dominates
// would be dropped on arrival, so SweepStream may skip scoring it. The
// frontier is the same either way; Seen counts skipped candidates and
// Screened counts how many of them there were.
type FrontierCollector struct {
	seen     int
	screened int
	frontier []Candidate
	// free holds the Scores buffers of evicted frontier members for reuse,
	// so a stabilised frontier churns without allocating (arriving
	// candidates carry caller scratch — see Collector — and retained ones
	// need their own copy). New buffers are carved from slab, so a growing
	// frontier allocates once per slabPoints members, not once each.
	free [][]float64
	slab []float64
}

// slabPoints is how many score vectors one FrontierCollector slab holds.
const slabPoints = 64

// NewFrontierCollector builds an empty streaming frontier.
func NewFrontierCollector() *FrontierCollector {
	return &FrontierCollector{}
}

// Collect offers one candidate. It implements Collector.
func (f *FrontierCollector) Collect(_ int, c Candidate) {
	f.seen++
	f.add(c)
}

// AppendFrontierScores implements Screener.
func (f *FrontierCollector) AppendFrontierScores(dst []float64) []float64 {
	for _, c := range f.frontier {
		dst = append(dst, c.Scores...)
	}
	return dst
}

// Skip implements Screener.
func (f *FrontierCollector) Skip(n int) {
	f.seen += n
	f.screened += n
}

// add is Collect without the seen counter.
func (f *FrontierCollector) add(c Candidate) {
	kept := f.frontier[:0]
	for _, old := range f.frontier {
		if dominates(old, c) {
			return // arriving candidate loses; survivors were already mutually non-dominated
		}
		if dominates(c, old) {
			f.free = append(f.free, old.Scores[:0])
		} else {
			kept = append(kept, old)
		}
	}
	var buf []float64
	if n := len(f.free); n > 0 {
		buf, f.free = f.free[n-1], f.free[:n-1]
	} else {
		nm := len(c.Scores)
		if len(f.slab) < nm {
			f.slab = make([]float64, slabPoints*nm)
		}
		buf, f.slab = f.slab[:0:nm], f.slab[nm:]
	}
	c.Scores = append(buf, c.Scores...)
	f.frontier = append(kept, c)
}

// Merge folds another frontier into f, so a sweep can be partitioned into
// shards, collected per shard, and merged. Pareto dominance is associative:
// the frontier of a union is the frontier of the union of the parts'
// frontiers, so the merged collector holds exactly the frontier (and total
// seen count) one collector would have accumulated over the whole sweep;
// screened counts add up. o must not be f itself.
func (f *FrontierCollector) Merge(o *FrontierCollector) {
	f.seen += o.seen
	f.screened += o.screened
	for _, c := range o.frontier {
		f.add(c)
	}
}

// Seen returns how many candidates were offered, screened ones included.
func (f *FrontierCollector) Seen() int { return f.seen }

// Screened returns how many of the offered candidates a screened sweep
// skipped without scoring them.
func (f *FrontierCollector) Screened() int { return f.screened }

// Frontier returns the current non-dominated set sorted by the first
// objective (ascending, ties by the second and so on), with candidates
// whose scores tie exactly ordered by configuration (frontierCmp): the
// order depends only on the set, never on the order candidates arrived or
// shards merged in. Scores are deep copies: the collector recycles evicted
// members' buffers as collection continues, so snapshots taken mid-sweep
// must not alias them.
func (f *FrontierCollector) Frontier() []Candidate {
	out := make([]Candidate, len(f.frontier))
	for i, c := range f.frontier {
		out[i] = Candidate{Config: c.Config, Scores: append([]float64(nil), c.Scores...)}
	}
	slices.SortFunc(out, frontierCmp)
	return out
}
