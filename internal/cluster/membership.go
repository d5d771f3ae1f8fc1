package cluster

import (
	"fmt"
	"maps"
	"sort"
)

// This file is the coordinator's membership plane: the scheduling member
// table. It has one writer, SetMembers, which takes the whole fleet at
// once — in dsed, each gossip round's alive set. Survivors keep their
// records through churn, so an in-flight sweep re-dispatches only the
// shards orphaned by a departure.

// defaultCapacity is the concurrent-shard budget of a member that
// advertises none, before placement spills past it.
const defaultCapacity = 4

// MemberInfo is one fleet member as SetMembers takes it: how to reach
// it and what it advertises.
type MemberInfo struct {
	// Transport reaches the worker; its Name is the member's key. A
	// member already in the fleet keeps the transport it joined with.
	Transport Transport
	// Capacity bounds how many shards the coordinator schedules on the
	// worker at once before placement spills past it (0 = default 4).
	Capacity int
	// Benchmarks is the worker's trained-model inventory: the benchmarks
	// whose every served metric is already in its registry. Among workers
	// with a free slot, placement prefers the benchmark's holders.
	Benchmarks []string
	// QueueDepths maps benchmark name to the worker's running job count
	// for it; their sum is part of the load placement balances.
	QueueDepths map[string]int
}

// member is one fleet entry: its transport, advertised inventory, and
// the scheduler's per-worker statistics. Shard claims hold the *member
// pointer, not the name: a worker that leaves and rejoins mid-shard gets
// a fresh record, and the stale shard's accounting lands harmlessly on
// the detached one instead of corrupting the new record's inflight count.
type member struct {
	name      string
	transport Transport
	capacity  int
	// benchmarks is the advertised trained inventory.
	benchmarks map[string]bool
	// queueDepths is the advertised per-benchmark running job count.
	queueDepths map[string]int
	// inflight counts shards currently dispatched to the worker.
	inflight int
	// ewmaPerDesignMS tracks the worker's observed per-design latency
	// (0 until the first completed shard); adaptive sizing derives the
	// worker's next shard size from it.
	ewmaPerDesignMS float64
	shardsDone      int
	// inst holds the worker's pre-registered metric handles (latency
	// histogram, fault taxonomy), created on fleet entry.
	inst workerInstruments
}

// MemberStatus is one member's row in membership reports (/healthz).
type MemberStatus struct {
	Name     string
	Capacity int
	// Benchmarks is the advertised trained inventory, sorted.
	Benchmarks []string
	// QueueDepths is the advertised per-benchmark running job count.
	QueueDepths map[string]int
	Inflight    int
	ShardsDone  int
	// EWMAPerDesignMS is the scheduler's latency estimate (0 = no
	// completed shard yet).
	EWMAPerDesignMS float64
	// Failures counts transport faults and timeouts booked against the
	// worker; Rejections counts its deterministic 4xx verdicts, which
	// blame the request, not the worker; Busy counts its retryable
	// at-capacity verdicts (429s) — load, not sickness.
	Failures   int
	Rejections int
	Busy       int
}

// SetMembers makes members the whole fleet. A member already present
// keeps its record — inflight shards, latency EWMA and shard counts
// survive — and has its capacity, inventory and queue depths refreshed;
// a new name enters with a fresh record; a name missing from the list
// leaves the table, and its in-flight shards (if they fail) re-dispatch
// to the survivors. An empty or duplicate name is an error and leaves
// the fleet unchanged.
func (c *Coordinator) SetMembers(members []MemberInfo) error {
	names := make(map[string]bool, len(members))
	for i, info := range members {
		name := ""
		if info.Transport != nil {
			name = info.Transport.Name()
		}
		if name == "" || names[name] {
			return fmt.Errorf("cluster: member %d has empty or duplicate name %q", i, name)
		}
		names[name] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for name := range c.members {
		if !names[name] {
			delete(c.members, name)
			c.metrics.event("leave")
		}
	}
	for _, info := range members {
		name := info.Transport.Name()
		m, ok := c.members[name]
		if !ok {
			m = &member{name: name, transport: info.Transport, inst: c.metrics.worker(name)}
			c.members[name] = m
			c.metrics.event("join")
		}
		m.capacity = defaultCapacity
		if info.Capacity > 0 {
			m.capacity = info.Capacity
		}
		m.benchmarks = benchmarkSet(info.Benchmarks)
		m.queueDepths = info.QueueDepths
	}
	c.metrics.membersGauge.Set(float64(len(c.members)))
	return nil
}

// Members reports the live fleet sorted by name.
func (c *Coordinator) Members() []MemberStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]MemberStatus, 0, len(c.members))
	for name, m := range c.members {
		out = append(out, MemberStatus{
			Name:            name,
			Capacity:        m.capacity,
			Benchmarks:      sortedBenchmarks(m.benchmarks),
			QueueDepths:     copyDepths(m.queueDepths),
			Inflight:        m.inflight,
			ShardsDone:      m.shardsDone,
			EWMAPerDesignMS: m.ewmaPerDesignMS,
			Failures:        c.failures[name],
			Rejections:      c.rejections[name],
			Busy:            c.busy[name],
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Workers returns the live fleet's names, sorted.
func (c *Coordinator) Workers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.members))
	for name := range c.members {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func benchmarkSet(list []string) map[string]bool {
	if len(list) == 0 {
		return nil
	}
	set := make(map[string]bool, len(list))
	for _, b := range list {
		set[b] = true
	}
	return set
}

func copyDepths(depths map[string]int) map[string]int {
	if len(depths) == 0 {
		return nil
	}
	return maps.Clone(depths)
}

func sortedBenchmarks(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}
