package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/wavelet"
	"repro/internal/wire"
	"repro/internal/workload"
)

// perLayerMetrics are reported by every workload with --trace 1. Layers
// a workload does not exercise (training on a warm daemon) read 0. The
// cluster.* figures come from an in-process coordinator over two local
// transports, so they exist on every workload.
var perLayerMetrics = []metricDef{
	{"workload.next_ns", "ns"},
	{"sim.run_ms", "ms"},
	{"sim.sweep_s", "s"},
	{"sim.instrs_per_s", "1/s"},
	{"sim.ns_per_cycle", "ns"},
	{"sim.allocs_per_inst", "count"},
	{"sim.oracle_profiles", "count"},
	{"wavelet.decompose_ns", "ns"},
	{"core.train_ms", "ms"},
	{"registry.load_ms", "ms"},
	{"registry.trainings_per_benchmark", "count"},
	{"space.full_factorial_ms", "ms"},
	{"core.predict_ns_per_design", "ns"},
	{"core.predict_allocs_per_design", "count"},
	{"explore.sweep_designs_per_s", "1/s"},
	{"explore.frontier_collect_ns", "ns"},
	{"explore.topk_collect_ns", "ns"},
	{"explore.pareto_frontier_ms", "ms"},
	{"explore.frontier_tie_order_diffs", "count"},
	{"api.first_update_ms", "ms"},
	{"api.predict_p50_ms", "ms"},
	{"api.predict_p90_ms", "ms"},
	{"wire.final_line_bytes", "bytes"},
	{"wire.final_spans", "count"},
	{"wire.final_encode_us", "us"},
	{"cluster.shards_per_job", "count"},
	{"cluster.shard_ms", "ms"},
	{"cluster.hedges_issued", "count"},
	{"cluster.hedge_waste_ratio", "ratio"},
	{"cluster.retries", "count"},
	{"cluster.local_pareto_s", "s"},
	{"gossip.merge_us", "us"},
	{"dsed.phase_train_ms", "ms"},
	{"dsed.phase_encode_ms", "ms"},
	{"dsed.phase_predict_ms", "ms"},
	{"dsed.phase_merge_ms", "ms"},
	{"dsed.rss_peak_mb", "MiB"},
	{"layer.client.self_ms", "ms"},
	{"layer.api.self_ms", "ms"},
	{"layer.wire.self_ms", "ms"},
	{"layer.explore.self_ms", "ms"},
	{"layer.workload.self_ms", "ms"},
	{"layer.sim.self_ms", "ms"},
	{"layer.wavelet.self_ms", "ms"},
	{"layer.core.self_ms", "ms"},
	{"layer.registry.self_ms", "ms"},
	{"layer.space.self_ms", "ms"},
	{"layer.cluster.self_ms", "ms"},
	{"layer.gossip.self_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.span_cost_ns", "ns"},
	{"trace.overhead_pct", "%"},
}

// perLayer derives the per-layer metrics: daemon-side figures from the
// workload's answers and metrics, then a suite that times each layer's
// public functions on the workload's inputs, with a span around every
// call.
func (r *runner) perLayer(ctx context.Context, ck *checker) (map[string]float64, error) {
	m := r.daemonLayers()
	if err := r.simLayers(ctx, m); err != nil {
		return nil, err
	}
	if err := r.modelLayers(ctx, ck, m); err != nil {
		return nil, err
	}

	// The wire layer: encoding the final updates the workload received.
	var encode []float64
	for _, o := range r.ops {
		if o.final == nil {
			continue
		}
		sp := r.tr.begin(nil, "wire", "encode-final")
		t0 := time.Now()
		_, err := json.Marshal(o.final)
		encode = append(encode, float64(time.Since(t0))/float64(time.Microsecond))
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("encoding a final update: %w", err)
		}
	}
	m["wire.final_encode_us"] = median(encode)

	for layer, d := range selfTimes(r.tr.finished()) {
		m["layer."+layer+".self_ms"] = millis(d)
	}
	for _, def := range perLayerMetrics {
		if _, ok := m[def.name]; !ok && strings.HasPrefix(def.name, "layer.") {
			m[def.name] = 0
		}
	}

	// Tracing overhead: spans recorded times the measured cost of one
	// span, as a share of the traced run's wall time.
	probe := newTracer()
	const n = 100000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		probe.begin(nil, "probe", "probe").end()
	}
	cost := float64(time.Since(t0)) / n
	spans := len(r.tr.finished())
	m["trace.spans"] = float64(spans)
	m["trace.span_cost_ns"] = cost
	m["trace.overhead_pct"] = 100 * float64(spans) * cost / float64(time.Since(r.tr.epoch))
	return m, nil
}

// daemonLayers reads the per-layer figures the workload's answers and
// daemons expose: job traces on final updates, stream timings, registry
// trainings, peak RSS and prediction latency.
func (r *runner) daemonLayers() map[string]float64 {
	m := make(map[string]float64)
	var first, lineBytes, spanCounts []float64
	phases := map[string][]float64{}
	for _, o := range r.ops {
		if o.final == nil {
			continue
		}
		first = append(first, millis(o.firstUpdate))
		if line, err := json.Marshal(o.final); err == nil {
			lineBytes = append(lineBytes, float64(len(line)+1))
		}
		spanCounts = append(spanCounts, float64(len(o.final.Spans)))
		self := selfTimes(fromObs(o.final.Spans))
		for _, name := range []string{"phase:train", "phase:encode", "phase:predict", "phase:merge"} {
			phases[name] = append(phases[name], millis(self[name]))
		}
	}
	m["api.first_update_ms"] = median(first)
	m["wire.final_line_bytes"] = median(lineBytes)
	m["wire.final_spans"] = median(spanCounts)
	m["dsed.phase_train_ms"] = median(phases["phase:train"])
	m["dsed.phase_encode_ms"] = median(phases["phase:encode"])
	m["dsed.phase_predict_ms"] = median(phases["phase:predict"])
	m["dsed.phase_merge_ms"] = median(phases["phase:merge"])
	m["registry.trainings_per_benchmark"] = float64(r.trainings) / float64(len(r.profiles)*r.passes)
	_, predicts := r.samples()
	ps := durations(predicts, time.Millisecond)
	m["api.predict_p50_ms"] = percentile(ps, 50)
	m["api.predict_p90_ms"] = percentile(ps, 90)
	m["dsed.rss_peak_mb"] = r.peakRSS
	m["explore.frontier_tie_order_diffs"] = float64(r.tieOrderDiffs)
	return m
}

// fromObs converts a daemon trace into harness spans named by span name,
// so selfTimes applies to both.
func fromObs(in []obs.Span) []span {
	ids := make(map[string]int, len(in))
	for i, s := range in {
		ids[s.SpanID] = i + 1
	}
	out := make([]span, len(in))
	for i, s := range in {
		start := time.Duration(s.StartUnix)
		out[i] = span{
			ID: i + 1, Parent: ids[s.ParentID], Layer: s.Name, Name: s.Name,
			Start: start, End: start + time.Duration(s.DurationMS*float64(time.Millisecond)),
		}
	}
	return out
}

// layerProfile is the profile the single-profile layer timings (sim.run_ms,
// sim.sweep_s, wavelet and every model layer) run on. It is fixed, and
// every workload requests it, so the seed changes only the order of
// requests, never what these figures measure.
const layerProfile = "gcc"

// simLayers replays the daemon's training simulations for every profile
// the workload requests, checks them against the recorded oracle, and
// times the workload generator, the simulator, the wavelet transform
// and RBF training on them.
func (r *runner) simLayers(ctx context.Context, m map[string]float64) error {
	var nextNS float64
	for _, b := range r.profiles {
		p, ok := workload.ProfileByName(b)
		if !ok {
			return fmt.Errorf("unknown profile %s", b)
		}
		g, err := workload.NewGenerator(p)
		if err != nil {
			return err
		}
		var inst workload.Inst
		const n = 1 << 16
		sp := r.tr.begin(nil, "workload", "next:"+b)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			g.Next(&inst)
		}
		nextNS += float64(time.Since(t0)) / n
		sp.end()
	}
	m["workload.next_ns"] = nextNS / float64(len(r.profiles))

	designs := trainDesigns()
	opts := servedSimOptions()
	var wall, trainTime time.Duration
	var instrs, cycles uint64
	var fits, matched int
	var sample []float64
	for _, b := range r.profiles {
		jobs := make([]sim.Job, len(designs))
		for j, d := range designs {
			jobs[j] = sim.Job{Config: d, Benchmark: b}
		}
		sp := r.tr.begin(nil, "sim", "sweep:"+b)
		t0 := time.Now()
		traces, err := sim.SweepContext(ctx, jobs, opts, 0)
		el := time.Since(t0)
		sp.end()
		if err != nil {
			return err
		}
		wall += el
		if b == layerProfile {
			m["sim.sweep_s"] = el.Seconds()
			sample = traces[0].CPI
		}
		digest, cyc := simDigest(traces)
		cycles += cyc
		for _, tr := range traces {
			for _, iv := range tr.Intervals {
				instrs += iv.Instrs
			}
		}
		if want := r.golden.Sim[b]; want.Digest != digest || want.Cycles != cyc {
			r.problems = append(r.problems, fmt.Sprintf("simulator oracle: %s statistics differ from the recorded ones (cycles %d, recorded %d)", b, cyc, want.Cycles))
		} else {
			matched++
		}
		sp = r.tr.begin(nil, "core", "train:"+b)
		t0 = time.Now()
		_, err = fitModels(designs, traces)
		trainTime += time.Since(t0)
		sp.end()
		if err != nil {
			return err
		}
		fits += len(servedMetrics)
	}
	m["sim.instrs_per_s"] = float64(instrs) / wall.Seconds()
	m["sim.ns_per_cycle"] = float64(wall) / float64(cycles)
	m["sim.oracle_profiles"] = float64(matched)
	m["core.train_ms"] = millis(trainTime) / float64(fits)

	var runs []time.Duration
	var allocs float64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp := r.tr.begin(nil, "sim", "run")
		t0 := time.Now()
		tr, err := sim.Run(space.Baseline(), layerProfile, opts)
		runs = append(runs, time.Since(t0))
		sp.end()
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		var n uint64
		for _, iv := range tr.Intervals {
			n += iv.Instrs
		}
		allocs = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	m["sim.run_ms"] = millis(medianDuration(runs))
	m["sim.allocs_per_inst"] = allocs

	const reps = 20000
	sp := r.tr.begin(nil, "wavelet", "decompose")
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := (wavelet.Haar{}).Decompose(sample); err != nil {
			return err
		}
	}
	m["wavelet.decompose_ns"] = float64(time.Since(t0)) / reps
	sp.end()
	return nil
}

// modelLayers times the warm-start, design-space, prediction,
// exploration, coordination and gossip layers on layerProfile, with
// models loaded from the model directory the daemon served.
func (r *runner) modelLayers(ctx context.Context, ck *checker, m map[string]float64) error {
	b := layerProfile

	copyTo := filepath.Join(r.work, "registry-load")
	if err := copyDir(r.modelDir, copyTo); err != nil {
		return err
	}
	var metrics []sim.Metric
	for _, name := range servedMetrics {
		mt, _ := wire.ParseMetric(name)
		metrics = append(metrics, mt)
	}
	sp := r.tr.begin(nil, "registry", "open")
	t0 := time.Now()
	st, err := registry.Open(registry.Config{
		Trainer: registry.TrainerFunc(func(context.Context, string, []sim.Metric) (map[sim.Metric]*core.Predictor, error) {
			return nil, errors.New("perfbench: warm-start only")
		}),
		Metrics:   metrics,
		Trainable: workload.Names(),
		Dir:       copyTo,
		Spec: registry.Spec{Train: servedTrain, Candidates: servedCandidates, Seed: servedTrainSeed,
			Samples: servedSamples, Instructions: servedInstrs, Coefficients: servedK},
		Context: ctx,
	})
	el := time.Since(t0)
	sp.end()
	if err != nil {
		return err
	}
	loaded := len(st.Trained())
	if loaded == 0 {
		return fmt.Errorf("registry warm-started nothing from %s", copyTo)
	}
	m["registry.load_ms"] = millis(el) / float64(loaded)

	var ffs []time.Duration
	var designs []space.Config
	for i := 0; i < 3; i++ {
		sp := r.tr.begin(nil, "space", "full-factorial")
		t0 := time.Now()
		designs = space.TrainLevels().FullFactorial(space.Baseline())
		ffs = append(ffs, time.Since(t0))
		sp.end()
	}
	m["space.full_factorial_ms"] = millis(medianDuration(ffs))

	objSpecs := []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}}
	models, objs, err := ck.objectiveModels(b, objSpecs)
	if err != nil {
		return err
	}
	p, err := ck.model(b, "CPI")
	if err != nil {
		return err
	}
	const chunk = 1024
	dst := p.PredictBatch(designs[:chunk], nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp = r.tr.begin(nil, "core", "predict-batch")
	t0 = time.Now()
	for i := 0; i+chunk <= len(designs); i += chunk {
		dst = p.PredictBatch(designs[i:i+chunk], dst)
	}
	el = time.Since(t0)
	sp.end()
	runtime.ReadMemStats(&after)
	full := len(designs) / chunk * chunk
	m["core.predict_ns_per_design"] = float64(el) / float64(full)
	m["core.predict_allocs_per_design"] = float64(after.Mallocs-before.Mallocs) / float64(full)

	sp = r.tr.begin(nil, "explore", "sweep-stream")
	t0 = time.Now()
	if err := explore.SweepStream(ctx, designs, models, objs, explore.Options{}, explore.NewFrontierCollector()); err != nil {
		return err
	}
	m["explore.sweep_designs_per_s"] = float64(len(designs)) / time.Since(t0).Seconds()
	sp.end()

	sp = r.tr.begin(nil, "explore", "sweep-context")
	res, err := explore.SweepContext(ctx, designs, models, objs, explore.Options{})
	sp.end()
	if err != nil {
		return err
	}
	fc := explore.NewFrontierCollector()
	sp = r.tr.begin(nil, "explore", "frontier-collect")
	t0 = time.Now()
	for i, c := range res.Evaluated {
		fc.Collect(i, c)
	}
	m["explore.frontier_collect_ns"] = float64(time.Since(t0)) / float64(len(res.Evaluated))
	sp.end()
	top := explore.NewTopK(10, 0, nil)
	sp = r.tr.begin(nil, "explore", "topk-collect")
	t0 = time.Now()
	for i, c := range res.Evaluated {
		top.Collect(i, c)
	}
	m["explore.topk_collect_ns"] = float64(time.Since(t0)) / float64(len(res.Evaluated))
	sp.end()
	sp = r.tr.begin(nil, "explore", "pareto-frontier")
	t0 = time.Now()
	frontier := explore.ParetoFrontier(res.Evaluated)
	m["explore.pareto_frontier_ms"] = millis(time.Since(t0))
	sp.end()

	resolve := func(_ context.Context, bench, metric string) (core.DynamicsModel, error) {
		mt, err := wire.ParseMetric(metric)
		if err != nil {
			return nil, err
		}
		return ck.model(bench, mt.String())
	}
	workers := []*timedTransport{
		{Transport: cluster.NewLocal("local-a", resolve)},
		{Transport: cluster.NewLocal("local-b", resolve)},
	}
	// The daemon's default hedge factor, so hedging shows as it would
	// in a fleet.
	coord, err := cluster.New([]cluster.Transport{workers[0], workers[1]}, cluster.Options{HedgeFactor: 3})
	if err != nil {
		return err
	}
	sp = r.tr.begin(nil, "cluster", "local-pareto")
	t0 = time.Now()
	cres, err := coord.Pareto(ctx, cluster.Query{Benchmark: b, Objectives: objSpecs}, designs)
	m["cluster.local_pareto_s"] = time.Since(t0).Seconds()
	sp.end()
	if err != nil {
		return err
	}
	var shardMS []float64
	for _, w := range workers {
		shardMS = append(shardMS, w.shardMS...)
	}
	issued, _, wasted := coord.HedgeStats()
	m["cluster.shards_per_job"] = float64(cres.Shards)
	m["cluster.shard_ms"] = median(shardMS)
	m["cluster.retries"] = float64(cres.Retries)
	m["cluster.hedges_issued"] = float64(issued)
	m["cluster.hedge_waste_ratio"] = 0
	if issued > 0 {
		m["cluster.hedge_waste_ratio"] = float64(wasted) / float64(issued)
	}
	fleet, err := digestCandidates(canonicalFrontier(wire.ToCandidates(cres.Frontier)))
	if err != nil {
		return err
	}
	single, err := digestCandidates(canonicalFrontier(wire.ToCandidates(frontier)))
	if err != nil {
		return err
	}
	if fleet != single {
		r.problems = append(r.problems, fmt.Sprintf("in-process fleet frontier for %s differs from the single-process one", b))
	}

	a := gossip.New(gossip.Options{Self: "127.0.0.1:1"})
	peer := gossip.New(gossip.Options{Self: "127.0.0.1:2"})
	peer.SetLocalInfo(2, warmProfiles, nil)
	digest := peer.Digest()
	const merges = 10000
	sp = r.tr.begin(nil, "gossip", "merge")
	t0 = time.Now()
	for i := 0; i < merges; i++ {
		a.Merge(digest)
	}
	m["gossip.merge_us"] = float64(time.Since(t0)) / float64(time.Microsecond) / merges
	sp.end()
	return nil
}

// timedTransport records the duration of every frontier shard it serves.
type timedTransport struct {
	cluster.Transport
	mu      sync.Mutex
	shardMS []float64
}

func (t *timedTransport) Pareto(ctx context.Context, q cluster.Query, s cluster.Shard) (*cluster.Partial, error) {
	t0 := time.Now()
	p, err := t.Transport.Pareto(ctx, q, s)
	t.mu.Lock()
	t.shardMS = append(t.shardMS, millis(time.Since(t0)))
	t.mu.Unlock()
	return p, err
}

// recordGolden recomputes the recorded digests from scratch, in process,
// exactly as the daemon trains and answers, and writes them to path.
func recordGolden(ctx context.Context, path string) error {
	g := golden{Sim: map[string]simGolden{}, ColdFrontier: map[string]string{}, WarmFrontier: map[string]string{}}
	designs := trainDesigns()
	objSpecs := []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}}
	objs := make([]explore.Objective, len(objSpecs))
	for i, s := range objSpecs {
		objs[i], _ = s.Build()
	}
	for _, b := range workload.Names() {
		jobs := make([]sim.Job, len(designs))
		for j, d := range designs {
			jobs[j] = sim.Job{Config: d, Benchmark: b}
		}
		traces, err := sim.SweepContext(ctx, jobs, servedSimOptions(), 0)
		if err != nil {
			return err
		}
		digest, cycles := simDigest(traces)
		g.Sim[b] = simGolden{Digest: digest, Cycles: cycles}
		fitted, err := fitModels(designs, traces)
		if err != nil {
			return err
		}
		models := []core.DynamicsModel{fitted["CPI"], fitted["Power"]}
		spaces := map[string]map[string]string{"test": g.ColdFrontier}
		if b == "gcc" || b == "mcf" {
			spaces["train"] = g.WarmFrontier
		}
		for name, table := range spaces {
			req := paretoRequest(b, name)
			res, err := explore.SweepContext(ctx, req.ResolveLate(nil), models, objs, explore.Options{})
			if err != nil {
				return err
			}
			if table[b], err = digestCandidates(canonicalFrontier(wire.ToCandidates(res.Frontier))); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "recorded %s (%d cycles)\n", b, cycles)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
