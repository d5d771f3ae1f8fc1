package explore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/space"
)

// randomMergeCandidates builds n candidates with nObj scores drawn from a small
// value set, so ties and duplicate score vectors (the frontier's edge
// cases) actually occur.
func randomMergeCandidates(rng *rand.Rand, n, nObj int) []Candidate {
	out := make([]Candidate, n)
	for i := range out {
		cfg := space.Baseline()
		cfg.ROBSize = 96 + i // make configs distinguishable
		scores := make([]float64, nObj)
		for j := range scores {
			scores[j] = float64(rng.Intn(12)) / 4
		}
		out[i] = Candidate{Config: cfg, Scores: scores}
	}
	return out
}

// shardSplit partitions [0,n) into k contiguous ranges (some possibly
// empty at the tail), mirroring the cluster coordinator's
// range-partitioning.
func shardSplit(n, k int) [][2]int {
	size := (n + k - 1) / k
	var out [][2]int
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		out = append(out, [2]int{start, end})
	}
	return out
}

func frontierKey(c Candidate) string {
	return fmt.Sprintf("%v|%v", c.Config.SweptValues(), c.Scores)
}

func sortedKeys(cands []Candidate) []string {
	keys := make([]string, len(cands))
	for i, c := range cands {
		keys[i] = frontierKey(c)
	}
	sort.Strings(keys)
	return keys
}

// TestFrontierMergeEqualsSingleProcess is the distribution-losslessness
// property: splitting a candidate set into k shards, extracting per-shard
// frontiers, and merging them yields exactly the single-process
// ParetoFrontier — for any shard count, objective count, and tie pattern.
func TestFrontierMergeEqualsSingleProcess(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		nObj := 1 + rng.Intn(3)
		k := 1 + rng.Intn(8)
		cands := randomMergeCandidates(rng, n, nObj)

		want := ParetoFrontier(cands)

		merged := NewFrontierCollector()
		for _, s := range shardSplit(n, k) {
			part := NewFrontierCollector()
			// Per-shard frontiers first (what a worker ships), then the
			// collector merge.
			for i, c := range ParetoFrontier(cands[s[0]:s[1]]) {
				part.Collect(s[0]+i, c)
			}
			merged.Merge(part)
		}

		got := merged.Frontier()
		wantKeys, gotKeys := sortedKeys(want), sortedKeys(got)
		if len(wantKeys) != len(gotKeys) {
			t.Fatalf("seed %d (n=%d k=%d obj=%d): merged frontier has %d points, single-process %d",
				seed, n, k, nObj, len(gotKeys), len(wantKeys))
		}
		for i := range wantKeys {
			if wantKeys[i] != gotKeys[i] {
				t.Fatalf("seed %d (n=%d k=%d obj=%d): frontier mismatch at %d:\n  got  %s\n  want %s",
					seed, n, k, nObj, i, gotKeys[i], wantKeys[i])
			}
		}
	}
}

// TestFrontierOrderIndependentOfArrival: the same candidates collected in
// any order, directly or through Merge of shuffled shards, yield an
// identical Frontier — exactly tied candidates included — so a parallel
// sweep's answer does not depend on chunk arrival order.
func TestFrontierOrderIndependentOfArrival(t *testing.T) {
	ties := 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cands := randomMergeCandidates(rng, 50+rng.Intn(300), 1+rng.Intn(3))

		ref := NewFrontierCollector()
		for i, c := range cands {
			ref.Collect(i, c)
		}
		want := ref.Frontier()
		for i := 1; i < len(want); i++ {
			if lexCmp(want[i-1].Scores, want[i].Scores) == 0 {
				ties++
			}
		}

		for trial := 0; trial < 5; trial++ {
			perm := rng.Perm(len(cands))
			direct := NewFrontierCollector()
			for _, i := range perm {
				direct.Collect(i, cands[i])
			}
			merged := NewFrontierCollector()
			parts := shardSplit(len(perm), 1+rng.Intn(6))
			rng.Shuffle(len(parts), func(a, b int) { parts[a], parts[b] = parts[b], parts[a] })
			for _, s := range parts {
				part := NewFrontierCollector()
				for _, i := range perm[s[0]:s[1]] {
					part.Collect(i, cands[i])
				}
				merged.Merge(part)
			}
			for name, got := range map[string][]Candidate{"shuffled": direct.Frontier(), "merged": merged.Frontier()} {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d trial %d: %s frontier order differs from in-order collection", seed, trial, name)
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no exactly tied frontier candidates; the test does not exercise tie order")
	}
}

// TestFrontierMergeSeenAccumulates proves Merge preserves the sweep-size
// accounting across shards.
func TestFrontierMergeSeenAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cands := randomMergeCandidates(rng, 100, 2)
	merged := NewFrontierCollector()
	for _, s := range shardSplit(len(cands), 4) {
		part := NewFrontierCollector()
		for i := s[0]; i < s[1]; i++ {
			part.Collect(i, cands[i])
		}
		merged.Merge(part)
	}
	if merged.Seen() != len(cands) {
		t.Fatalf("merged Seen() = %d, want %d", merged.Seen(), len(cands))
	}
}

// TestTopKMergeEqualsSingleProcess: per-shard top-K collectors (tagged
// with global design indexes) merged together must agree with one
// collector fed the whole sweep — exactly, including tie-breaking order
// and the seen/feasible counters.
func TestTopKMergeEqualsSingleProcess(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		n := 1 + rng.Intn(400)
		nObj := 1 + rng.Intn(3)
		k := 1 + rng.Intn(8)
		topk := 1 + rng.Intn(12)
		objective := rng.Intn(nObj)
		var constraints []Constraint
		if nObj > 1 && rng.Intn(2) == 0 {
			constraints = []Constraint{{Objective: (objective + 1) % nObj, Max: 1.5}}
		}
		cands := randomMergeCandidates(rng, n, nObj)

		single := NewTopK(topk, objective, constraints)
		for i, c := range cands {
			single.Collect(i, c)
		}

		merged := NewTopK(topk, objective, constraints)
		for _, s := range shardSplit(n, k) {
			part := NewTopK(topk, objective, constraints)
			for i := s[0]; i < s[1]; i++ {
				part.Collect(i, cands[i])
			}
			merged.Merge(part)
		}

		if merged.Seen() != single.Seen() || merged.Feasible() != single.Feasible() {
			t.Fatalf("seed %d: merged seen/feasible = %d/%d, single = %d/%d",
				seed, merged.Seen(), merged.Feasible(), single.Seen(), single.Feasible())
		}
		got, want := merged.Results(), single.Results()
		if len(got) != len(want) {
			t.Fatalf("seed %d (n=%d k=%d topk=%d): merged kept %d, single kept %d",
				seed, n, k, topk, len(got), len(want))
		}
		for i := range want {
			if frontierKey(got[i]) != frontierKey(want[i]) {
				t.Fatalf("seed %d (n=%d k=%d topk=%d): rank %d differs:\n  got  %s\n  want %s",
					seed, n, k, topk, i, frontierKey(got[i]), frontierKey(want[i]))
			}
		}
	}
}

// TestTopKMergeRejectsMismatchedRules: merging collectors with different
// selection rules is a programming error and must fail loudly.
func TestTopKMergeRejectsMismatchedRules(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging TopK collectors with different k did not panic")
		}
	}()
	a := NewTopK(3, 0, nil)
	b := NewTopK(5, 0, nil)
	a.Merge(b)
}
