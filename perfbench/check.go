package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/mathx"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/wire"
)

// The served model configuration (dsed's defaults, passed explicitly in
// servedArgs): what the daemon simulates and fits per benchmark.
const (
	servedTrain      = 40
	servedCandidates = 10
	servedTrainSeed  = 1
	servedSamples    = 64
	servedInstrs     = 65536
	servedK          = 16
)

var servedMetrics = []string{"CPI", "Power", "AVF"}

// goldenJSON holds the recorded answers the checks compare against:
// per-profile simulator digests and frontier digests. Regenerate with
// -record only when a change is meant to alter simulated statistics or
// predictions.
//
//go:embed golden.json
var goldenJSON []byte

// golden is the decoded goldenJSON.
type golden struct {
	// Sim maps a profile to the digest of its training designs'
	// simulated CPI/Power/AVF series and cycle counts.
	Sim map[string]simGolden `json:"sim"`
	// ColdFrontier maps a profile to the digest of its CPI×Power
	// frontier over the test space.
	ColdFrontier map[string]string `json:"cold_frontier"`
	// WarmFrontier is ColdFrontier over the full train space.
	WarmFrontier map[string]string `json:"warm_frontier"`
}

type simGolden struct {
	Digest string `json:"digest"`
	Cycles uint64 `json:"cycles"`
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// trainDesigns is the daemon trainer's LHS sample, identical for every
// benchmark.
func trainDesigns() []space.Config {
	return space.SampleDesign(servedTrain, space.TrainLevels(), space.Baseline(), servedCandidates, mathx.NewRNG(servedTrainSeed))
}

func servedSimOptions() sim.Options {
	return sim.Options{Instructions: servedInstrs, Samples: servedSamples}
}

// simDigest hashes the CPI, Power and AVF series and the cycle count of
// every trace, in order, and returns the digest and the total cycles.
func simDigest(traces []*sim.Trace) (string, uint64) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	var total uint64
	for _, tr := range traces {
		for _, series := range [][]float64{tr.CPI, tr.Power, tr.AVF} {
			put(uint64(len(series)))
			for _, v := range series {
				put(math.Float64bits(v))
			}
		}
		var cycles uint64
		for _, iv := range tr.Intervals {
			cycles += iv.Cycles
		}
		put(cycles)
		total += cycles
	}
	return hex.EncodeToString(h.Sum(nil)), total
}

// fitModels fits one predictor per served metric, as the daemon's
// trainer does.
func fitModels(designs []space.Config, traces []*sim.Trace) (map[string]*core.Predictor, error) {
	out := make(map[string]*core.Predictor, len(servedMetrics))
	for _, name := range servedMetrics {
		m, err := wire.ParseMetric(name)
		if err != nil {
			return nil, err
		}
		series := make([][]float64, len(traces))
		for i, tr := range traces {
			series[i] = tr.Series(m)
		}
		p, err := core.Train(designs, series, core.Options{NumCoefficients: servedK})
		if err != nil {
			return nil, err
		}
		out[name] = p
	}
	return out, nil
}

// digestCandidates hashes a candidate list's JSON encoding.
func digestCandidates(cands []wire.Candidate) (string, error) {
	data, err := json.Marshal(cands)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// canonicalFrontier orders a frontier by scores and, among candidates
// with exactly equal scores, by configuration. The daemon sorts its
// frontier by scores only, so the order of exact ties follows the order
// in which parallel chunks were collected; comparing canonical forms
// checks the answer itself, and the tie order is counted separately.
func canonicalFrontier(cands []wire.Candidate) []wire.Candidate {
	out := append([]wire.Candidate(nil), cands...)
	key := func(c wire.Candidate) string { return fmt.Sprintf("%+v", c.Config) }
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].Scores, out[j].Scores
		for k := range a {
			if k < len(b) && a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return key(out[i]) < key(out[j])
	})
	return out
}

// paretoRequest is the CPI×Power frontier request over a named space.
func paretoRequest(benchmark, spaceName string) wire.ParetoRequest {
	return wire.ParetoRequest{
		Benchmark:  benchmark,
		Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}},
		SpaceSpec:  wire.SpaceSpec{Space: spaceName},
	}
}

// jobSpec is one exploration job as submitted. Exactly one of Pareto
// and Sweep is set. Golden names the recorded digest table the answer
// must also match ("cold", "warm", or empty for none).
type jobSpec struct {
	Pareto *wire.ParetoRequest `json:"pareto,omitempty"`
	Sweep  *wire.SweepRequest  `json:"sweep,omitempty"`
	Golden string              `json:"-"`
}

func (j jobSpec) benchmark() string {
	if j.Pareto != nil {
		return j.Pareto.Benchmark
	}
	return j.Sweep.Benchmark
}

func (j jobSpec) key() string {
	//dsedlint:ignore jsonenc request structs of strings, integers and finite floats always encode
	data, _ := json.Marshal(j)
	return string(data)
}

// checker validates the daemon's answers against in-process references
// computed with the same public functions over the same models, loaded
// from the model directory the daemon serves.
type checker struct {
	dir    string
	golden *golden

	mu     sync.Mutex
	models map[string]*core.Predictor
	refs   map[string]*reference
	// tieOrderDiffs counts correct frontiers whose bytes differed from
	// the reference only in the order of exactly tied candidates.
	tieOrderDiffs int
}

// reference is the expected answer to one distinct job.
type reference struct {
	once sync.Once
	// cands is the expected answer's encoding; for frontiers, of its
	// canonical form, with raw the reference's own order.
	cands     []byte
	raw       []byte
	evaluated int
	feasible  int
	err       error
}

func newChecker(dir string, g *golden) *checker {
	return &checker{dir: dir, golden: g, models: make(map[string]*core.Predictor), refs: make(map[string]*reference)}
}

// manifestEntry is the part of a model directory's manifest the checker
// reads to find a model file.
type manifestEntry struct {
	Benchmark string `json:"benchmark"`
	Metric    string `json:"metric"`
	File      string `json:"file"`
}

// model loads (once) the persisted predictor for benchmark × metric.
func (c *checker) model(benchmark, metric string) (*core.Predictor, error) {
	key := benchmark + "/" + metric
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.models[key]; p != nil {
		return p, nil
	}
	data, err := os.ReadFile(filepath.Join(c.dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var mf struct {
		Models []manifestEntry `json:"models"`
	}
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, err
	}
	for _, e := range mf.Models {
		if e.Benchmark != benchmark || e.Metric != metric {
			continue
		}
		f, err := os.Open(filepath.Join(c.dir, e.File))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		p, err := core.Load(f)
		if err != nil {
			return nil, err
		}
		c.models[key] = p
		return p, nil
	}
	return nil, fmt.Errorf("no %s model for %s in %s", metric, benchmark, c.dir)
}

// objectiveModels resolves a request's objectives like the daemon does.
func (c *checker) objectiveModels(benchmark string, specs []wire.ObjectiveSpec) ([]core.DynamicsModel, []explore.Objective, error) {
	models := make([]core.DynamicsModel, len(specs))
	objs := make([]explore.Objective, len(specs))
	for i, s := range specs {
		m, err := wire.ParseMetric(s.Metric)
		if err != nil {
			return nil, nil, err
		}
		p, err := c.model(benchmark, m.String())
		if err != nil {
			return nil, nil, err
		}
		obj, err := s.Build()
		if err != nil {
			return nil, nil, err
		}
		models[i], objs[i] = p, obj
	}
	return models, objs, nil
}

// expected computes (once per distinct job) the reference answer:
// explore.SweepContext over the job's designs, then the frontier or the
// top-K collected over every evaluated candidate in design order.
func (c *checker) expected(ctx context.Context, spec jobSpec) *reference {
	c.mu.Lock()
	ref := c.refs[spec.key()]
	if ref == nil {
		ref = &reference{}
		c.refs[spec.key()] = ref
	}
	c.mu.Unlock()
	ref.once.Do(func() {
		var sp wire.SpaceSpec
		var specs []wire.ObjectiveSpec
		if spec.Pareto != nil {
			sp, specs = spec.Pareto.SpaceSpec, spec.Pareto.Objectives
		} else {
			sp, specs = spec.Sweep.SpaceSpec, spec.Sweep.Objectives
		}
		early, err := sp.ResolveEarly()
		if err != nil {
			ref.err = err
			return
		}
		designs := sp.ResolveLate(early)
		models, objs, err := c.objectiveModels(spec.benchmark(), specs)
		if err != nil {
			ref.err = err
			return
		}
		res, err := explore.SweepContext(ctx, designs, models, objs, explore.Options{})
		if err != nil {
			ref.err = err
			return
		}
		ref.evaluated = len(res.Evaluated)
		if spec.Pareto != nil {
			frontier := wire.ToCandidates(res.Frontier)
			if ref.raw, ref.err = json.Marshal(frontier); ref.err == nil {
				ref.cands, ref.err = json.Marshal(canonicalFrontier(frontier))
			}
			return
		}
		k := spec.Sweep.TopK
		if k <= 0 {
			k = 10
		}
		cons := make([]explore.Constraint, len(spec.Sweep.Constraints))
		for i, con := range spec.Sweep.Constraints {
			cons[i] = explore.Constraint{Objective: con.Objective, Max: con.Max}
		}
		top := explore.NewTopK(k, spec.Sweep.Objective, cons)
		for i, cand := range res.Evaluated {
			top.Collect(i, cand)
		}
		ref.feasible = top.Feasible()
		ref.cands, ref.err = json.Marshal(wire.ToCandidates(top.Results()))
	})
	return ref
}

// errWrongAnswer marks an answer that differs from the reference.
var errWrongAnswer = errors.New("wrong answer")

// checkJob validates a job's final update against its reference and,
// where the job names one, the recorded digest.
func (c *checker) checkJob(ctx context.Context, spec jobSpec, final *api.Update) error {
	if final == nil {
		return errors.New("no final update")
	}
	if final.Error != nil {
		return fmt.Errorf("job failed: %s", final.Error.Message)
	}
	ref := c.expected(ctx, spec)
	if ref.err != nil {
		return fmt.Errorf("reference for %s: %w", spec.key(), ref.err)
	}
	answer := final.Candidates
	if spec.Pareto != nil {
		answer = canonicalFrontier(answer)
	}
	got, err := json.Marshal(answer)
	if err != nil {
		return err
	}
	switch {
	case final.Evaluated != ref.evaluated:
		return fmt.Errorf("%w: %s evaluated %d designs, reference %d", errWrongAnswer, spec.benchmark(), final.Evaluated, ref.evaluated)
	case spec.Sweep != nil && final.Feasible != ref.feasible:
		return fmt.Errorf("%w: %s feasible %d, reference %d", errWrongAnswer, spec.benchmark(), final.Feasible, ref.feasible)
	case !bytes.Equal(got, ref.cands):
		return fmt.Errorf("%w: %s answer differs from the in-process reference (%d vs %d bytes)", errWrongAnswer, spec.benchmark(), len(got), len(ref.cands))
	}
	var table map[string]string
	switch spec.Golden {
	case "cold":
		table = c.golden.ColdFrontier
	case "warm":
		table = c.golden.WarmFrontier
	}
	if table != nil {
		digest, err := digestCandidates(answer)
		if err != nil {
			return err
		}
		if want := table[spec.benchmark()]; want != digest {
			return fmt.Errorf("%w: %s frontier digest differs from the recorded one", errWrongAnswer, spec.benchmark())
		}
	}
	if spec.Pareto != nil {
		raw, err := json.Marshal(final.Candidates)
		if err != nil {
			return err
		}
		if !bytes.Equal(raw, ref.raw) {
			c.mu.Lock()
			c.tieOrderDiffs++
			c.mu.Unlock()
		}
	}
	return nil
}

// checkPredict validates a batch prediction cell by cell against the
// in-process predictor: the same mean and worst sample, bit for bit.
func (c *checker) checkPredict(req wire.PredictRequest, resp *wire.BatchPredictResponse) error {
	if len(resp.Results) != len(req.Configs) {
		return fmt.Errorf("%w: %d result rows for %d configs", errWrongAnswer, len(resp.Results), len(req.Configs))
	}
	for i, cs := range req.Configs {
		cfg, err := cs.Apply(space.Baseline())
		if err != nil {
			return err
		}
		if len(resp.Results[i]) != len(req.Metrics) {
			return fmt.Errorf("%w: row %d has %d cells for %d metrics", errWrongAnswer, i, len(resp.Results[i]), len(req.Metrics))
		}
		for j, metric := range req.Metrics {
			p, err := c.model(req.Benchmark, metric)
			if err != nil {
				return err
			}
			trace := p.Predict(cfg)
			got := resp.Results[i][j]
			if got.Mean != mathx.Mean(trace) || got.Worst != mathx.Max(trace) {
				return fmt.Errorf("%w: %s %s prediction differs from the in-process predictor", errWrongAnswer, req.Benchmark, metric)
			}
		}
	}
	return nil
}
