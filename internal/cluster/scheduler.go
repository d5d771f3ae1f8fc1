package cluster

// This file is the coordinator's shard scheduler: shards are carved off
// the design list on demand (not pre-partitioned), each sized for the
// worker about to take it, and each placed by one rule (ranksBefore)
// over the live fleet as it is at that moment. Every input the rule
// reads is observed, so there is nothing to tune.

// carver hands out contiguous shards of a sweep's remaining design
// segments on demand. A fresh sweep is one segment covering the whole
// list; an adopted sweep's segments are the complement of the replicated
// shard ledger, with Start offsets preserved so every candidate keeps
// the index it would have had in the uninterrupted run. Shard boundaries
// do not affect the merged answer (the reductions are associative and
// property-tested shard-size-independent), so the carver is free to size
// every bite for whichever worker takes it. Callers serialise access
// (the coordinator carves under its own lock).
type carver struct {
	segments []Segment
	seg      int // current segment
	off      int // offset within it
}

// take carves the next shard of up to n designs; ok is false when every
// segment is exhausted. A shard never spans segments: the ranges between
// them are already merged, and re-evaluating them would double-count.
func (cv *carver) take(n int) (Shard, bool) {
	for cv.seg < len(cv.segments) && cv.off >= len(cv.segments[cv.seg].Designs) {
		cv.seg++
		cv.off = 0
	}
	if cv.seg >= len(cv.segments) {
		return Shard{}, false
	}
	if n < 1 {
		n = 1
	}
	s := cv.segments[cv.seg]
	if rest := len(s.Designs) - cv.off; n > rest {
		n = rest
	}
	shard := Shard{Start: s.Start + cv.off, Designs: s.Designs[cv.off : cv.off+n]}
	cv.off += n
	return shard, true
}

// nextAssignment carves the next shard and claims a worker slot for it.
// The shard is sized for the chosen worker's observed latency (adaptive
// sizing) and the pick sees the fleet as it is right now — a worker that
// joined a second ago is already schedulable, a departed one already
// isn't. The claimed member is nil when no live worker exists (the shard
// then fails with a diagnosable error instead of blocking forever).
func (c *Coordinator) nextAssignment(cv *carver, benchmark string) (Shard, *member, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.pickWorkerLocked(benchmark, nil)
	s, ok := cv.take(c.shardSizeLocked(m))
	if !ok {
		return Shard{}, nil, false
	}
	if m != nil {
		m.inflight++
	}
	return s, m, true
}

// claimRetry picks and claims the scheduler's next choice among live
// workers not yet tried for a failing shard (nil when none is left).
func (c *Coordinator) claimRetry(benchmark string, tried map[string]bool) *member {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.pickWorkerLocked(benchmark, tried)
	if m != nil {
		m.inflight++
	}
	return m
}

// pickWorkerLocked is the placement rule: over the live members not yet
// tried for this shard, it returns the one that ranks first (nil when
// none is left). Only members of the current table are candidates, so a
// departed worker can never be placed on.
func (c *Coordinator) pickWorkerLocked(benchmark string, tried map[string]bool) *member {
	var best *member
	for name, m := range c.members {
		if !tried[name] && (best == nil || m.ranksBefore(best, benchmark)) {
			best = m
		}
	}
	if best != nil {
		c.metrics.placements.Inc()
	}
	return best
}

// ranksBefore orders two candidates for one shard of benchmark:
//
//  1. a worker with a free slot (inflight < capacity) before a
//     saturated one, so the sweep spills only under load — yet a fully
//     saturated fleet still gets a pick and keeps progressing;
//  2. a worker advertising the benchmark's trained models before one
//     that would train on demand mid-sweep;
//  3. the lower load: inflight shards plus every advertised queue depth,
//     so a straggler's piled-up shards and a worker busy with other
//     traffic both repel new ones (depths arrive by gossip and lag a
//     round: a trend, not truth);
//  4. the name, alphabetically, so equal inputs give equal picks.
func (m *member) ranksBefore(o *member, benchmark string) bool {
	if free, oFree := m.inflight < m.capacity, o.inflight < o.capacity; free != oFree {
		return free
	}
	if has, oHas := m.benchmarks[benchmark], o.benchmarks[benchmark]; has != oHas {
		return has
	}
	if load, oLoad := m.load(), o.load(); load != oLoad {
		return load < oLoad
	}
	return m.name < o.name
}

// load is the member's observed work: the coordinator's in-flight shards
// on it plus its advertised queue depths across all benchmarks.
func (m *member) load() int {
	n := m.inflight
	for _, d := range m.queueDepths {
		n += d
	}
	return n
}

// shardSizeLocked sizes the next shard for one worker. Fixed ShardSize
// until adaptive sizing is on (TargetShardTime > 0) and the worker has a
// latency observation; then the size that would take about
// TargetShardTime at the worker's per-design EWMA, clamped to
// [minShardSize, maxShardSize].
func (c *Coordinator) shardSizeLocked(m *member) int {
	size := c.opts.ShardSize
	if c.opts.TargetShardTime <= 0 || m == nil || m.ewmaPerDesignMS <= 0 {
		return size
	}
	targetMS := float64(c.opts.TargetShardTime.Microseconds()) / 1000
	adaptive := int(targetMS / m.ewmaPerDesignMS)
	if adaptive < minShardSize {
		return minShardSize
	}
	if adaptive > maxShardSize {
		return maxShardSize
	}
	return adaptive
}
