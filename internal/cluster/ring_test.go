package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

func ringOf(names ...string) *ring {
	r := newRing()
	for _, n := range names {
		r.add(n)
	}
	return r
}

// TestRingStability: placement is deterministic, covers every worker, and
// removing one worker leaves every surviving benchmark home unchanged.
func TestRingStability(t *testing.T) {
	names := []string{"w0", "w1", "w2", "w3"}
	r := ringOf(names...)
	benchmarks := make([]string, 200)
	for i := range benchmarks {
		benchmarks[i] = fmt.Sprintf("bench-%d", i)
	}
	used := make(map[string]bool)
	for _, b := range benchmarks {
		order := r.order(b)
		if len(order) != len(names) {
			t.Fatalf("order(%s) covers %d workers, want %d", b, len(order), len(names))
		}
		seen := make(map[string]bool)
		for _, w := range order {
			if seen[w] {
				t.Fatalf("order(%s) repeats worker %s", b, w)
			}
			seen[w] = true
		}
		used[order[0]] = true
		// Determinism.
		again := r.order(b)
		for i := range order {
			if order[i] != again[i] {
				t.Fatalf("order(%s) not deterministic", b)
			}
		}
	}
	if len(used) != len(names) {
		t.Errorf("homes landed on %d of %d workers — badly unbalanced ring", len(used), len(names))
	}

	// Drop w3: benchmarks homed elsewhere must not move.
	smaller := ringOf(names[:3]...)
	moved := 0
	for _, b := range benchmarks {
		before := r.order(b)[0]
		after := smaller.order(b)[0]
		if before != "w3" && before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d benchmarks homed on surviving workers moved after a worker left; consistent hashing should move none", moved)
	}
}

// TestRingIncrementalMatchesRebuild: a ring grown and shrunk through
// add/remove is point-for-point identical to one built fresh over the
// same survivors — incremental maintenance loses nothing.
func TestRingIncrementalMatchesRebuild(t *testing.T) {
	incremental := ringOf("a", "b", "c", "d", "e")
	incremental.remove("b")
	incremental.remove("d")
	incremental.add("f")
	fresh := ringOf("a", "c", "e", "f")
	if len(incremental.points) != len(fresh.points) {
		t.Fatalf("incremental ring has %d points, fresh rebuild %d", len(incremental.points), len(fresh.points))
	}
	for i := range fresh.points {
		if incremental.points[i] != fresh.points[i] {
			t.Fatalf("point %d differs: incremental %+v, fresh %+v", i, incremental.points[i], fresh.points[i])
		}
	}
	// Idempotence: re-adding a member or removing a stranger is a no-op.
	incremental.add("f")
	incremental.remove("zz")
	if len(incremental.points) != len(fresh.points) {
		t.Error("duplicate add or bogus remove changed the ring")
	}
}

// TestRingJoinLeaveMovementProperty is the membership-plane property
// test: across many random fleets, a single join moves ~1/N of benchmark
// homes — all onto the joiner — and a single leave moves only the
// departed worker's homes — each to a surviving worker. A home never
// moves between two surviving workers.
func TestRingJoinLeaveMovementProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	benchmarks := make([]string, 400)
	for i := range benchmarks {
		benchmarks[i] = fmt.Sprintf("bench-%d", i)
	}
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(7) // fleet of 2..8 before the change
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("t%d-w%d", trial, i)
		}
		r := ringOf(names...)
		before := make(map[string]string, len(benchmarks))
		for _, b := range benchmarks {
			before[b] = r.order(b)[0]
		}

		// Join: only the new worker may take homes, and it should take
		// roughly len/(n+1) of them.
		joiner := fmt.Sprintf("t%d-joiner", trial)
		r.add(joiner)
		movedToJoiner := 0
		for _, b := range benchmarks {
			after := r.order(b)[0]
			if after != before[b] {
				if after != joiner {
					t.Fatalf("trial %d: join moved %s's home from %s to survivor %s", trial, b, before[b], after)
				}
				movedToJoiner++
			}
		}
		expect := float64(len(benchmarks)) / float64(n+1)
		if movedToJoiner == 0 || float64(movedToJoiner) > 3*expect {
			t.Errorf("trial %d: join of 1/%d moved %d of %d homes (expected around %.0f)",
				trial, n+1, movedToJoiner, len(benchmarks), expect)
		}

		// Leave: only the departed worker's homes move.
		atJoin := make(map[string]string, len(benchmarks))
		for _, b := range benchmarks {
			atJoin[b] = r.order(b)[0]
		}
		leaver := names[rng.Intn(n)]
		r.remove(leaver)
		movedFromLeaver := 0
		for _, b := range benchmarks {
			after := r.order(b)[0]
			if atJoin[b] == leaver {
				if after == leaver {
					t.Fatalf("trial %d: %s still homed on removed worker %s", trial, b, leaver)
				}
				movedFromLeaver++
			} else if after != atJoin[b] {
				t.Fatalf("trial %d: leave of %s moved %s's home between survivors %s -> %s",
					trial, leaver, b, atJoin[b], after)
			}
		}
		if movedFromLeaver == 0 {
			t.Errorf("trial %d: leaver %s homed no benchmarks out of %d — degenerate ring balance", trial, leaver, len(benchmarks))
		}
	}
}
