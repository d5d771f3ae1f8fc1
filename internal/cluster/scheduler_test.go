package cluster

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// ruleMember is one member's state in a placement-rule case.
type ruleMember struct {
	name     string
	capacity int // 0 = defaultCapacity
	inflight int
	holder   bool // advertises gcc's trained models
	depths   map[string]int
}

// TestPlacementRule runs the one placement rule over member states. Each
// case pins its pick, and every case is also held to the rule's
// contract: the pick is a live, untried member; it is deterministic; a
// free worker always beats a saturated one; under capacity a model
// holder beats a non-holder; and among free holders the lowest load
// wins.
func TestPlacementRule(t *testing.T) {
	cases := []struct {
		name    string
		members []ruleMember
		tried   []string
		want    string
	}{
		{
			name:    "idle holder beats idle non-holders",
			members: []ruleMember{{name: "w-a"}, {name: "w-b", holder: true}, {name: "w-c"}},
			want:    "w-b",
		},
		{
			name:    "free non-holder beats saturated holder",
			members: []ruleMember{{name: "w-a", capacity: 2, inflight: 2, holder: true}, {name: "w-b", capacity: 2}},
			want:    "w-b",
		},
		{
			name:    "free holder beats less loaded non-holder",
			members: []ruleMember{{name: "w-a", inflight: 3, holder: true}, {name: "w-b"}},
			want:    "w-a",
		},
		{
			name:    "lower inflight wins among holders",
			members: []ruleMember{{name: "w-a", inflight: 2, holder: true}, {name: "w-b", inflight: 1, holder: true}},
			want:    "w-b",
		},
		{
			name: "queue depths on every benchmark count as load",
			members: []ruleMember{
				{name: "w-a", holder: true, depths: map[string]int{"gcc": 1, "mcf": 2}},
				{name: "w-b", inflight: 2, holder: true},
			},
			want: "w-b",
		},
		{
			name:    "name breaks ties",
			members: []ruleMember{{name: "w-b", holder: true}, {name: "w-a", holder: true}},
			want:    "w-a",
		},
		{
			name: "saturated fleet still progresses",
			members: []ruleMember{
				{name: "w-a", capacity: 1, inflight: 3, holder: true},
				{name: "w-b", capacity: 1, inflight: 1, holder: true},
			},
			want: "w-b",
		},
		{
			name:    "tried members are skipped",
			members: []ruleMember{{name: "w-a", holder: true}, {name: "w-b"}},
			tried:   []string{"w-a"},
			want:    "w-b",
		},
		{
			name:    "everyone tried",
			members: []ruleMember{{name: "w-a"}},
			tried:   []string{"w-a"},
		},
		{name: "empty fleet"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord := newTestCoordinator(t, nil, Options{})
			infos := make([]MemberInfo, len(tc.members))
			for i, rm := range tc.members {
				infos[i] = MemberInfo{Transport: NewLocal(rm.name, resolveFake), Capacity: rm.capacity, QueueDepths: rm.depths}
				if rm.holder {
					infos[i].Benchmarks = []string{"gcc"}
				}
			}
			if err := coord.SetMembers(infos); err != nil {
				t.Fatal(err)
			}
			tried := make(map[string]bool)
			for _, name := range tc.tried {
				tried[name] = true
			}
			coord.mu.Lock()
			defer coord.mu.Unlock()
			for _, rm := range tc.members {
				coord.members[rm.name].inflight = rm.inflight
			}
			pick := coord.pickWorkerLocked("gcc", tried)
			if again := coord.pickWorkerLocked("gcc", tried); again != pick {
				t.Fatalf("pick is nondeterministic: %v then %v", pick, again)
			}
			got := ""
			if pick != nil {
				got = pick.name
			}
			if got != tc.want {
				t.Fatalf("picked %q, want %q", got, tc.want)
			}
			if pick == nil {
				return
			}
			if coord.members[pick.name] != pick || tried[pick.name] {
				t.Fatalf("picked %q: not a live, untried member", pick.name)
			}
			free := func(m *member) bool { return m.inflight < m.capacity }
			for name, m := range coord.members {
				if tried[name] || m == pick {
					continue
				}
				switch {
				case free(m) && !free(pick):
					t.Fatalf("picked saturated %q over free %q", pick.name, name)
				case free(m) && m.benchmarks["gcc"] && !pick.benchmarks["gcc"]:
					t.Fatalf("picked non-holder %q over free holder %q", pick.name, name)
				case free(m) && m.benchmarks["gcc"] && m.load() < pick.load():
					t.Fatalf("picked holder %q (load %d) over less loaded holder %q (load %d)", pick.name, pick.load(), name, m.load())
				}
			}
		})
	}
}

// TestBusyHolderYieldsToIdleHolder: with two idle model holders, a shard
// held in flight on one sends the next assignment to the other. The
// claim comes from a retry that excluded the other holder, as after a
// failure there, so the busy holder is not simply the last one picked.
func TestBusyHolderYieldsToIdleHolder(t *testing.T) {
	coord := newTestCoordinator(t, nil, Options{ShardSize: 8})
	if err := coord.SetMembers([]MemberInfo{
		{Transport: NewLocal("holder-a", resolveFake), Benchmarks: []string{"gcc"}},
		{Transport: NewLocal("holder-b", resolveFake), Benchmarks: []string{"gcc"}},
	}); err != nil {
		t.Fatal(err)
	}
	busy := coord.claimRetry("gcc", map[string]bool{"holder-a": true})
	if busy == nil || busy.name != "holder-b" {
		t.Fatalf("retry excluding holder-a claimed %+v, want holder-b", busy)
	}
	cv := &carver{segments: []Segment{{Designs: testDesigns(8)}}}
	_, next, ok := coord.nextAssignment(cv, "gcc")
	if !ok || next == nil {
		t.Fatal("no assignment with two live holders")
	}
	if next.name != "holder-a" {
		t.Fatalf("next shard went to %s with a shard in flight there and holder-a idle", next.name)
	}
}

// TestPoliciesNeverPlaceOnEvicted drives the rule through the
// coordinator: a member SetMembers dropped must receive zero shards,
// even when it was the only model holder, and the sweep must still
// equal the single-process answer.
func TestPoliciesNeverPlaceOnEvicted(t *testing.T) {
	survivor := &counting{Transport: NewLocal("survivor", resolveFake)}
	lapsed := &counting{Transport: NewLocal("lapsed", resolveFake)}
	coord := newTestCoordinator(t, []Transport{survivor}, Options{ShardSize: 64})
	if err := coord.SetMembers([]MemberInfo{{Transport: survivor}, {Transport: lapsed, Benchmarks: []string{"gcc"}}}); err != nil {
		t.Fatal(err)
	}
	// The model holder leaves before the sweep starts, and placement may
	// not resurrect it.
	if err := coord.SetMembers([]MemberInfo{{Transport: survivor}}); err != nil {
		t.Fatal(err)
	}
	designs := testDesigns(400)
	res, err := coord.Pareto(context.Background(), testQuery(), designs)
	if err != nil {
		t.Fatal(err)
	}
	if got := lapsed.calls.Load(); got != 0 {
		t.Fatalf("placed %d shards on an evicted member", got)
	}
	want := singleProcessReference(t, designs)
	if !reflect.DeepEqual(candKeys(res.Frontier), candKeys(want.Frontier)) {
		t.Fatal("frontier diverged from single-process answer")
	}
}

// TestLeastLoadedFollowsQueueDepths: placement must consume the
// advertised queue depths — a holder drowning in externally-submitted
// jobs repels shards while an idle holder has a free slot, even though
// the coordinator itself has nothing in flight on it.
func TestLeastLoadedFollowsQueueDepths(t *testing.T) {
	idle := &counting{Transport: NewLocal("idle", resolveFake)}
	drowning := &counting{Transport: NewLocal("drowning", resolveFake)}
	coord := newTestCoordinator(t, nil, Options{ShardSize: 64})
	if err := coord.SetMembers([]MemberInfo{
		{Transport: idle, Benchmarks: []string{"gcc"}},
		{Transport: drowning, Benchmarks: []string{"gcc"}, QueueDepths: map[string]int{"gcc": 7, "mcf": 2}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Pareto(context.Background(), testQuery(), testDesigns(300)); err != nil {
		t.Fatal(err)
	}
	if got := drowning.calls.Load(); got != 0 {
		t.Fatalf("sent %d shards to the queue-deep worker with an idle one free", got)
	}
	if idle.calls.Load() == 0 {
		t.Fatal("no shards reached the idle worker")
	}
}

// TestHedgingRescuesStuckWorker: a worker that accepts shards and never
// answers must not hold the sweep hostage — hedged dispatch re-runs its
// shards elsewhere, the merged frontier still equals the single-process
// answer exactly, and at least one hedge is booked as won.
func TestHedgingRescuesStuckWorker(t *testing.T) {
	fast := NewLocal("fast", resolveFake)
	// The stuck worker's name sorts first, so with the fleet idle the
	// placement rule's name tie-break hands it the sweep's first shard.
	stuck := blocking{name: "a-stuck"}
	coord := newTestCoordinator(t, []Transport{fast, stuck}, Options{
		ShardSize:   64,
		HedgeFactor: 2,
	})
	designs := testDesigns(500)
	res, err := coord.Pareto(context.Background(), testQuery(), designs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != len(designs) {
		t.Fatalf("evaluated %d of %d designs", res.Evaluated, len(designs))
	}
	want := singleProcessReference(t, designs)
	if !reflect.DeepEqual(candKeys(res.Frontier), candKeys(want.Frontier)) {
		t.Fatal("hedged frontier diverged from single-process answer")
	}
	issued, won, wasted := coord.HedgeStats()
	if won == 0 {
		t.Fatalf("no hedge won against a stuck worker (issued=%d wasted=%d)", issued, wasted)
	}
	if issued != won+wasted {
		t.Fatalf("hedge accounting drifted: issued=%d won=%d wasted=%d", issued, won, wasted)
	}
}

// slowTransport completes every shard, ctx or not, after a fixed delay —
// a worker that is slow but correct, so hedges race genuinely duplicated
// work.
type slowTransport struct {
	Transport
	delay time.Duration
}

func (s slowTransport) Pareto(ctx context.Context, q Query, sh Shard) (*Partial, error) {
	<-time.After(s.delay)
	return s.Transport.Pareto(context.WithoutCancel(ctx), q, sh)
}

func (s slowTransport) Sweep(ctx context.Context, q Query, sh Shard) (*Partial, error) {
	<-time.After(s.delay)
	return s.Transport.Sweep(context.WithoutCancel(ctx), q, sh)
}

// TestHedgeDuplicatesMergeExactlyOnce is the idempotence proof behind
// "hedging is safe": when both the primary and the hedge complete the
// same shard, exactly one partial merges — the evaluated count stays
// exact (the collectors are not duplicate-idempotent, so a double merge
// would show) and the frontier is byte-identical to the single-process
// answer.
func TestHedgeDuplicatesMergeExactlyOnce(t *testing.T) {
	// Shards outlast hedgeMinDelay, so the floored trigger can fire
	// while the primary is still working.
	workers := []Transport{
		slowTransport{Transport: NewLocal("slow-a", resolveFake), delay: 2 * hedgeMinDelay},
		slowTransport{Transport: NewLocal("slow-b", resolveFake), delay: 2 * hedgeMinDelay},
	}
	coord := newTestCoordinator(t, workers, Options{
		ShardSize: 50,
		// An aggressive trigger: after the first completions price the
		// fleet, nearly every shard hedges — and with both workers equally
		// slow, both attempts usually finish.
		HedgeFactor: 0.05,
	})
	designs := testDesigns(400)
	res, err := coord.Pareto(context.Background(), testQuery(), designs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != len(designs) {
		t.Fatalf("evaluated %d of %d designs: a duplicate partial merged", res.Evaluated, len(designs))
	}
	want := singleProcessReference(t, designs)
	if !reflect.DeepEqual(candKeys(res.Frontier), candKeys(want.Frontier)) {
		t.Fatal("hedged frontier diverged from single-process answer")
	}
	issued, won, wasted := coord.HedgeStats()
	if issued == 0 {
		t.Fatal("no hedges issued under an aggressive hedge factor")
	}
	if issued != won+wasted {
		t.Fatalf("hedge accounting drifted: issued=%d won=%d wasted=%d", issued, won, wasted)
	}
}

// TestHedgingDisabledIssuesNone: the default configuration must never
// speculate.
func TestHedgingDisabledIssuesNone(t *testing.T) {
	coord := newTestCoordinator(t, localFleet(2), Options{ShardSize: 64})
	if _, err := coord.Pareto(context.Background(), testQuery(), testDesigns(300)); err != nil {
		t.Fatal(err)
	}
	if issued, won, wasted := coord.HedgeStats(); issued+won+wasted != 0 {
		t.Fatalf("hedges booked with hedging disabled: %d/%d/%d", issued, won, wasted)
	}
}

// TestFleetEWMAMedian pins the cold-worker expectation hedging prices
// against.
func TestFleetEWMAMedian(t *testing.T) {
	coord := newTestCoordinator(t, localFleet(3), Options{})
	coord.mu.Lock()
	coord.members["local-0"].ewmaPerDesignMS = 0.1
	coord.members["local-1"].ewmaPerDesignMS = 0.4
	coord.members["local-2"].ewmaPerDesignMS = 9.0
	got := coord.fleetEWMALocked()
	coord.mu.Unlock()
	if got != 0.4 {
		t.Fatalf("fleet median EWMA = %v, want 0.4", got)
	}
	empty := newTestCoordinator(t, localFleet(2), Options{})
	empty.mu.Lock()
	defer empty.mu.Unlock()
	if got := empty.fleetEWMALocked(); got != 0 {
		t.Fatalf("unobserved fleet median = %v, want 0", got)
	}
}
