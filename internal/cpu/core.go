// Package cpu implements the cycle-level out-of-order superscalar timing
// model used as the detailed simulator substrate (DESIGN.md: substitution
// for the paper's modified SimpleScalar).
//
// The model executes a workload.Generator instruction stream through a
// fetch → dispatch → issue → writeback → commit pipeline with:
//
//   - a decoupled fetch unit with gshare/BTB/RAS prediction, IL1 and ITLB;
//     fetch stalls on instruction-cache misses and on unresolved
//     mispredicted branches (stall-on-mispredict; no wrong-path execution);
//   - dispatch into ROB, IQ and LSQ subject to capacity and to the DVM
//     throttle when enabled;
//   - dataflow issue limited by issue width and Table 1 functional-unit
//     pools, with loads probing DL1/DTLB/L2/memory for their latency;
//   - in-order commit bounded by commit width.
//
// Every structure the nine design parameters name (fetch width, ROB, IQ,
// LSQ, both L1s, L2 and the two latencies) has first-class timing effect.
//
// Idle-cycle fast-forward. Memory-bound code spends most cycles waiting: a
// long-latency miss blocks the ROB head, the window is full, fetch is
// stalled. Such a cycle changes nothing but the per-cycle occupancy and
// AVF sums, and it stays that way until an instruction completes or the
// fetch stall expires. The core therefore jumps over provably idle runs
// in one step, adding n× the unchanged occupancies. A cycle is idle when
// all of these hold:
//
//   - its completion-wheel slot is empty (nothing writes back);
//   - the ready queue is empty (nothing issues);
//   - the ROB head has not completed, or the run's commit budget is spent;
//   - dispatch cannot place the next fetched instruction: the fetch
//     buffer is empty, or the ROB, IQ or (for a memory op) LSQ is full;
//   - fetch is blocked on a mispredict, stalled until fetchStallUntil, or
//     has no buffer room.
//
// Only a completion or the stall expiring can end such a run, so the jump
// lands on the next non-empty wheel slot or fetchStallUntil, whichever
// comes first, and never exceeds one wheel revolution (so the deadlock
// watchdog still sees every stuck pipeline). The result is bit-identical
// to stepping each cycle. Cores with DVM enabled never fast-forward: the
// controller samples IQ ACE occupancy every cycle and its throttle can
// change dispatch from one cycle to the next, so they take the per-cycle
// path.
package cpu

import (
	"fmt"

	"repro/internal/avf"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/dvm"
	"repro/internal/space"
	"repro/internal/workload"
)

// wheelSize bounds the completion time wheel; it must exceed the largest
// possible single-instruction latency (TLB miss + memory + L2 + L1).
const wheelSize = 1024

// mispredictRedirectPenalty is the front-end refill delay after a resolved
// misprediction, on top of the resolution delay itself.
const mispredictRedirectPenalty = 3

// Execution latencies per op class (cycles); loads compute theirs from the
// memory hierarchy.
var execLatency = [workload.NumOpClasses]uint64{
	workload.OpIntALU: 1,
	workload.OpIntMul: 7,
	workload.OpFPALU:  4,
	workload.OpFPMul:  12,
	workload.OpLoad:   0, // computed
	workload.OpStore:  1,
	workload.OpBranch: 1,
}

type robEntry struct {
	seq       uint64
	op        workload.OpClass
	dead      bool
	inIQ      bool
	usesLSQ   bool
	completed bool

	// pendingDeps counts operands still waiting on a producer. The
	// consumers waiting on this entry form a list threaded through their
	// depNext links: firstConsumer and each link name a consumer's ROB
	// slot and operand as slot<<1 | operand, or -1 at the end.
	pendingDeps   int32
	firstConsumer int32
	depNext       [2]int32

	// nextDone threads the completion wheel slot this entry waits in.
	nextDone int32

	mispredicted bool
	// Memory hierarchy outcomes recorded at dispatch, consumed by
	// loadLatency at issue.
	dl1Miss  bool
	l2Miss   bool
	dtlbMiss bool
}

// fetchedInst is an instruction waiting in the fetch buffer for dispatch.
type fetchedInst struct {
	inst         workload.Inst
	mispredicted bool
}

// Core is one simulated processor bound to a configuration and a workload.
type Core struct {
	cfg space.Config
	gen workload.Generator

	il1, dl1, l2 *cache.Cache
	itlb, dtlb   *cache.TLB
	gshare       *bpred.Gshare
	btb          *bpred.BTB
	ras          *bpred.RAS
	tracker      *avf.Tracker
	dvmCtl       *dvm.Controller

	cycle uint64
	seq   uint64

	rob      []robEntry
	robHead  int
	robCount int
	iqCount  int
	lsqCount int
	readyQ   []int32

	fetchQ          []fetchedInst
	fetchHead       int  // dispatch cursor into fetchQ; compacted per cycle
	fetchBlocked    bool // an in-flight mispredicted branch gates fetch
	blockedSlot     int32
	blockedInQ      bool // the blocking branch is still in the fetch queue
	fetchStallUntil uint64

	// The completion wheel: wheelHead[s] and wheelTail[s] delimit the
	// list (through robEntry.nextDone) of ROB slots that complete at the
	// cycles ≡ s mod wheelSize; -1 marks an empty slot.
	wheelHead, wheelTail [wheelSize]int32

	outstandingL2 int

	committed uint64
	// commitStop bounds commit so a Run retires exactly its instruction
	// budget even when the final cycle could retire a full commit group.
	commitStop uint64
	c          counters
}

// counters accumulates activity; interval stats are deltas of this.
type counters struct {
	fetches, dispatches, issues, commits uint64
	il1Access, il1Miss                   uint64
	dl1Access, dl1Miss                   uint64
	l2Access, l2Miss                     uint64
	itlbMiss, dtlbMiss                   uint64
	branches, mispredicts                uint64
	intOps, fpOps, memOps                uint64
	robOccSum, iqOccSum, lsqOccSum       uint64
	dvmStallCycles                       uint64
}

// New builds a core for the configuration and workload. The workload
// generator is reset so every run starts from the same stream position.
func New(cfg space.Config, gen workload.Generator) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Core{cfg: cfg, gen: gen}
	var err error
	if c.il1, err = cache.New("il1", cfg.IL1SizeKB, cfg.IL1Assoc, cfg.IL1LineB); err != nil {
		return nil, err
	}
	if c.dl1, err = cache.New("dl1", cfg.DL1SizeKB, cfg.DL1Assoc, cfg.DL1LineB); err != nil {
		return nil, err
	}
	if c.l2, err = cache.New("l2", cfg.L2SizeKB, cfg.L2Assoc, cfg.L2LineB); err != nil {
		return nil, err
	}
	if c.itlb, err = cache.NewTLB("itlb", cfg.ITLBEntries, 4); err != nil {
		return nil, err
	}
	if c.dtlb, err = cache.NewTLB("dtlb", cfg.DTLBEntries, 4); err != nil {
		return nil, err
	}
	c.gshare = bpred.NewGshare(cfg.BPredEntries, cfg.GHistBits)
	c.btb = bpred.NewBTB(cfg.BTBEntries, 4)
	c.ras = bpred.NewRAS(cfg.RASEntries)
	c.tracker = avf.NewTracker(cfg.IQSize, cfg.ROBSize)
	c.rob = make([]robEntry, cfg.ROBSize)
	c.readyQ = make([]int32, 0, cfg.IQSize)
	for s := range c.wheelHead {
		c.wheelHead[s] = -1
	}
	c.fetchQ = make([]fetchedInst, 0, 4*cfg.FetchWidth)
	c.blockedSlot = -1
	gen.Reset()
	return c, nil
}

// EnableDVM attaches the Section 5 IQ vulnerability-management policy with
// the given online sampling interval (in cycles).
func (c *Core) EnableDVM(threshold float64, sampleIntervalCycles uint64) {
	c.dvmCtl = dvm.NewController(threshold, c.cfg.IQSize, sampleIntervalCycles)
}

// Config returns the core's configuration.
func (c *Core) Config() space.Config { return c.cfg }

// step advances the simulation one cycle, or fast-forwards over a run of
// idle cycles (see idleCycles).
func (c *Core) step() {
	if n := c.idleCycles(); n > 0 {
		c.tick(n)
		return
	}
	c.writeback()
	c.commit()
	c.issue()
	c.dispatch()
	// Compact the fetch buffer so fetch sees its true free capacity.
	if c.fetchHead > 0 {
		n := copy(c.fetchQ, c.fetchQ[c.fetchHead:])
		c.fetchQ = c.fetchQ[:n]
		c.fetchHead = 0
	}
	c.fetch()
	c.tick(1)
}

// tick does the per-cycle accounting for n cycles over which occupancy is
// unchanged, and advances the clock past them. DVM cores only tick one
// cycle at a time: the controller samples every cycle.
func (c *Core) tick(n uint64) {
	c.c.robOccSum += n * uint64(c.robCount)
	c.c.iqOccSum += n * uint64(c.iqCount)
	c.c.lsqOccSum += n * uint64(c.lsqCount)
	c.tracker.TickN(n)
	if c.dvmCtl != nil {
		c.dvmCtl.Tick(c.tracker.CurrentIQACE())
	}
	c.cycle += n
}

// idleCycles returns how many cycles, starting with the current one, the
// pipeline provably only accrues occupancy, or 0 if this cycle does work
// (the exactness conditions are in the package comment).
func (c *Core) idleCycles() uint64 {
	if c.dvmCtl != nil || len(c.readyQ) > 0 || c.wheelHead[c.cycle%wheelSize] >= 0 {
		return 0
	}
	if c.robCount > 0 && c.committed < c.commitStop && c.rob[c.robHead].completed {
		return 0
	}
	if c.canDispatch() {
		return 0
	}
	stalled := c.cycle < c.fetchStallUntil
	if !c.fetchBlocked && !stalled && len(c.fetchQ)-c.fetchHead < cap(c.fetchQ) {
		return 0
	}
	limit := uint64(wheelSize)
	if stalled && c.fetchStallUntil-c.cycle < limit {
		limit = c.fetchStallUntil - c.cycle
	}
	n := uint64(1)
	for n < limit && c.wheelHead[(c.cycle+n)%wheelSize] < 0 {
		n++
	}
	return n
}

// canDispatch reports whether the window has room for the next fetched
// instruction (ignoring the DVM throttle).
func (c *Core) canDispatch() bool {
	if c.fetchHead >= len(c.fetchQ) || c.robCount >= c.cfg.ROBSize || c.iqCount >= c.cfg.IQSize {
		return false
	}
	op := c.fetchQ[c.fetchHead].inst.Op
	return (op != workload.OpLoad && op != workload.OpStore) || c.lsqCount < c.cfg.LSQSize
}

// writeback drains this cycle's completions, waking dependents.
func (c *Core) writeback() {
	s := c.cycle % wheelSize
	for idx := c.wheelHead[s]; idx >= 0; idx = c.rob[idx].nextDone {
		e := &c.rob[idx]
		e.completed = true
		if e.op == workload.OpLoad && e.l2Miss {
			c.outstandingL2--
		}
		if e.mispredicted && c.fetchBlocked && !c.blockedInQ && c.blockedSlot == idx {
			c.fetchBlocked = false
			c.blockedSlot = -1
			resume := c.cycle + mispredictRedirectPenalty
			if resume > c.fetchStallUntil {
				c.fetchStallUntil = resume
			}
		}
		for ref := e.firstConsumer; ref >= 0; {
			consumer := ref >> 1
			ce := &c.rob[consumer]
			ref = ce.depNext[ref&1]
			ce.pendingDeps--
			if ce.pendingDeps == 0 && ce.inIQ {
				c.readyQ = append(c.readyQ, consumer)
			}
		}
		e.firstConsumer = -1
	}
	c.wheelHead[s] = -1
}

// commit retires completed instructions in order.
func (c *Core) commit() {
	width := c.cfg.FetchWidth
	for n := 0; n < width && c.robCount > 0 && c.committed < c.commitStop; n++ {
		e := &c.rob[c.robHead]
		if !e.completed {
			return
		}
		if e.usesLSQ {
			c.lsqCount--
		}
		c.tracker.OnCommit(e.dead)
		c.robHead = (c.robHead + 1) % len(c.rob)
		c.robCount--
		c.committed++
		c.c.commits++
	}
}

// issue selects ready instructions oldest-first subject to issue width and
// functional unit availability.
func (c *Core) issue() {
	if len(c.readyQ) == 0 {
		return
	}
	width := c.cfg.FetchWidth
	// Per-class issue slots this cycle (Table 1 functional unit pools).
	var slots [workload.NumOpClasses]int
	slots[workload.OpIntALU] = c.cfg.IntALU
	slots[workload.OpIntMul] = c.cfg.IntMulDiv
	slots[workload.OpFPALU] = c.cfg.FPALU
	slots[workload.OpFPMul] = c.cfg.FPMulDiv
	slots[workload.OpLoad] = c.cfg.MemPorts
	slots[workload.OpStore] = c.cfg.MemPorts
	slots[workload.OpBranch] = c.cfg.IntALU

	issued := 0
	for issued < width {
		// Oldest eligible ready instruction.
		best := -1
		var bestSeq uint64
		for i, idx := range c.readyQ {
			e := &c.rob[idx]
			if slots[e.op] <= 0 {
				continue
			}
			if best == -1 || e.seq < bestSeq {
				best, bestSeq = i, e.seq
			}
		}
		if best == -1 {
			return
		}
		idx := c.readyQ[best]
		c.readyQ[best] = c.readyQ[len(c.readyQ)-1]
		c.readyQ = c.readyQ[:len(c.readyQ)-1]

		e := &c.rob[idx]
		slots[e.op]--
		if e.op == workload.OpBranch || e.op == workload.OpIntALU || e.op == workload.OpIntMul {
			c.c.intOps++
		} else if e.op == workload.OpFPALU || e.op == workload.OpFPMul {
			c.c.fpOps++
		}
		e.inIQ = false
		c.iqCount--
		c.tracker.OnIssue(e.dead)
		c.c.issues++

		lat := execLatency[e.op]
		if e.op == workload.OpLoad {
			lat = c.loadLatency(e)
		}
		if lat == 0 {
			lat = 1
		}
		s := (c.cycle + lat) % wheelSize
		e.nextDone = -1
		if c.wheelHead[s] < 0 {
			c.wheelHead[s] = idx
		} else {
			c.rob[c.wheelTail[s]].nextDone = idx
		}
		c.wheelTail[s] = idx
		issued++
	}
}

// loadLatency composes the latency of a load from the hierarchy outcomes
// recorded at dispatch. The cache state itself was already updated then;
// only timing is decided here.
func (c *Core) loadLatency(e *robEntry) uint64 {
	lat := uint64(c.cfg.DL1Lat)
	if e.l2Miss {
		lat += uint64(c.cfg.L2Lat) + uint64(c.cfg.MemLat)
		c.outstandingL2++
	} else if e.dl1Miss {
		lat += uint64(c.cfg.L2Lat)
	}
	if e.dtlbMiss {
		lat += uint64(c.cfg.TLBMissLat)
	}
	return lat
}

// dispatch moves instructions from the fetch buffer into the window.
func (c *Core) dispatch() {
	width := c.cfg.FetchWidth
	if c.dvmCtl != nil {
		waiting := c.iqCount - len(c.readyQ)
		if c.dvmCtl.ShouldStallDispatch(c.outstandingL2, waiting, len(c.readyQ)) {
			c.c.dvmStallCycles++
			return
		}
	}
	for n := 0; n < width && c.canDispatch(); n++ {
		fi := &c.fetchQ[c.fetchHead]
		inst := &fi.inst
		needsLSQ := inst.Op == workload.OpLoad || inst.Op == workload.OpStore

		slot := int32((c.robHead + c.robCount) % len(c.rob))
		e := &c.rob[slot]
		*e = robEntry{
			seq:           c.seq,
			op:            inst.Op,
			dead:          inst.Dead,
			inIQ:          true,
			usesLSQ:       needsLSQ,
			mispredicted:  fi.mispredicted,
			firstConsumer: -1,
		}
		c.robCount++
		c.iqCount++
		if needsLSQ {
			c.lsqCount++
		}
		c.tracker.OnDispatch(e.dead)
		c.c.dispatches++
		if inst.Op == workload.OpLoad || inst.Op == workload.OpStore {
			c.c.memOps++
			c.accessDataHierarchy(e, inst)
		}
		if fi.mispredicted && c.blockedInQ {
			c.blockedSlot = slot
			c.blockedInQ = false
		}

		// Resolve register dependences against the in-flight window: the
		// producer of a distance-d dependence occupies the ROB slot d
		// positions back, provided it has not committed (d < robCount).
		for k, d := range [2]uint16{inst.Dep1, inst.Dep2} {
			if d == 0 || int(d) >= c.robCount {
				continue // no dependence, or producer already committed
			}
			prodSlot := (int(slot) - int(d) + len(c.rob)) % len(c.rob)
			pe := &c.rob[prodSlot]
			if pe.completed {
				continue
			}
			e.depNext[k] = pe.firstConsumer
			pe.firstConsumer = slot<<1 | int32(k)
			e.pendingDeps++
		}
		if e.pendingDeps == 0 {
			c.readyQ = append(c.readyQ, slot)
		}
		c.seq++
		c.fetchHead++
	}
}

// accessDataHierarchy probes DTLB, DL1 and L2 for a memory instruction and
// records the outcome flags consumed by loadLatency.
func (c *Core) accessDataHierarchy(e *robEntry, inst *workload.Inst) {
	c.c.dl1Access++
	if !c.dtlb.Access(inst.Addr) {
		c.c.dtlbMiss++
		e.dtlbMiss = true
	}
	if !c.dl1.Access(inst.Addr) {
		c.c.dl1Miss++
		e.dl1Miss = true
		c.c.l2Access++
		if !c.l2.Access(inst.Addr) {
			c.c.l2Miss++
			if inst.Op == workload.OpLoad {
				e.l2Miss = true
			}
		}
	}
}

// fetch brings instructions into the fetch buffer.
func (c *Core) fetch() {
	if c.fetchBlocked || c.cycle < c.fetchStallUntil {
		return
	}
	width := c.cfg.FetchWidth
	room := cap(c.fetchQ) - len(c.fetchQ)
	if room < width {
		width = room
	}
	for n := 0; n < width; n++ {
		// Fill the buffer's next slot in place: an Inst handed to the
		// interface method from the stack would escape to the heap.
		c.fetchQ = c.fetchQ[:len(c.fetchQ)+1]
		fi := &c.fetchQ[len(c.fetchQ)-1]
		inst := &fi.inst
		c.gen.Next(inst)
		c.c.fetches++

		// Instruction memory.
		c.c.il1Access++
		if !c.itlb.Access(inst.PC) {
			c.c.itlbMiss++
			if stall := c.cycle + uint64(c.cfg.TLBMissLat); stall > c.fetchStallUntil {
				c.fetchStallUntil = stall
			}
		}
		if !c.il1.Access(inst.PC) {
			c.c.il1Miss++
			c.c.l2Access++
			stall := uint64(c.cfg.L2Lat)
			if !c.l2.Access(inst.PC) {
				c.c.l2Miss++
				stall += uint64(c.cfg.MemLat)
			}
			if c.cycle+stall > c.fetchStallUntil {
				c.fetchStallUntil = c.cycle + stall
			}
		}

		fi.mispredicted = false
		stopFetch := false
		if inst.Op == workload.OpBranch {
			c.c.branches++
			fi.mispredicted = c.predictBranch(inst)
			if fi.mispredicted {
				c.c.mispredicts++
				c.fetchBlocked = true
				c.blockedInQ = true
				stopFetch = true
			} else if inst.Taken {
				// Even a correctly predicted taken branch ends the
				// fetch group.
				stopFetch = true
			}
		}
		if stopFetch || c.cycle < c.fetchStallUntil {
			return
		}
	}
}

// predictBranch runs the front-end predictors against the branch and
// reports whether the machine would mispredict it (direction or target).
func (c *Core) predictBranch(inst *workload.Inst) bool {
	mispred := false

	predTaken := c.gshare.Predict(inst.PC)
	c.gshare.Update(inst.PC, inst.Taken)

	switch {
	case inst.IsRet:
		// Returns are predicted taken via the RAS.
		target, ok := c.ras.Pop()
		if !ok || target != inst.Target {
			mispred = true
		}
	case inst.IsCall:
		c.ras.Push(inst.PC + 4)
		target, ok := c.btb.Lookup(inst.PC)
		if !ok || target != inst.Target {
			mispred = true
		}
		c.btb.Insert(inst.PC, inst.Target)
	default:
		if predTaken != inst.Taken {
			mispred = true
		}
		if inst.Taken {
			target, ok := c.btb.Lookup(inst.PC)
			if predTaken && (!ok || target != inst.Target) {
				mispred = true
			}
			c.btb.Insert(inst.PC, inst.Target)
		}
	}
	return mispred
}

// watchdogWindow bounds how long the core may go without committing before
// Run reports a deadlock (a model bug, not a workload property).
const watchdogWindow = 1_000_000

// ErrDeadlock is returned when the pipeline stops retiring instructions.
var ErrDeadlock = fmt.Errorf("cpu: pipeline deadlock (no commit progress)")
