// Package explore implements the end use-case the paper motivates:
// *informed* design space exploration. Once wavelet neural networks are
// trained for a workload, whole design spaces can be swept through the
// models at microseconds per design instead of minutes of detailed
// simulation — scoring every candidate's predicted dynamics, filtering by
// worst-case scenario constraints, and extracting Pareto frontiers.
//
// The evaluation engine shards candidates across a bounded worker pool
// (models are immutable after training, so concurrent Predict calls are
// safe), honours context cancellation, and always reports results in
// design order regardless of which worker scored which candidate. Two
// sweep shapes are offered:
//
//   - SweepContext materialises every candidate and its Pareto frontier —
//     the right tool up to a few hundred thousand designs.
//   - SweepStream feeds candidates through Collectors (TopK,
//     FrontierCollector) without retaining them, so million-design sweeps
//     hold only the answer alive. Into a FrontierCollector it also
//     screens: designs whose models' cheap mean bounds the frontier so
//     far already beats are skipped unpredicted, without changing the
//     answer.
package explore

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/space"
)

// Objective summarises a predicted dynamics trace into a scalar score.
type Objective struct {
	// Name labels the objective in reports.
	Name string
	// Score reduces a predicted trace to a scalar (lower is better).
	Score func(trace []float64) float64

	// meanBounded marks scores that are at least the trace's mean —
	// mathx.Mean itself, or anything at least the exact mean of the
	// entries — so a model's mean bound lower-bounds the score and a
	// streaming frontier sweep may screen designs (see SweepStream).
	meanBounded bool
}

// MeanObjective scores by trace mean — aggregate behaviour.
func MeanObjective(name string) Objective {
	return Objective{Name: name, Score: mathx.Mean, meanBounded: true}
}

// WorstCaseObjective scores by trace maximum — the worst execution
// scenario, the quantity thermal/reliability provisioning cares about.
// The maximum is at least the mean, so the mean's bound lower-bounds it.
func WorstCaseObjective(name string) Objective {
	return Objective{Name: name, Score: mathx.Max, meanBounded: true}
}

// ExceedanceObjective scores by the fraction of samples at or above a
// threshold — the scenario-classification view of Figures 12–13. An empty
// trace exceeds nothing and scores 0.
func ExceedanceObjective(name string, threshold float64) Objective {
	return Objective{Name: name, Score: func(trace []float64) float64 {
		if len(trace) == 0 {
			return 0
		}
		n := 0
		for _, v := range trace {
			if v >= threshold {
				n++
			}
		}
		return float64(n) / float64(len(trace))
	}}
}

// Candidate is one evaluated design point.
type Candidate struct {
	Config space.Config
	// Scores[i] is the i-th objective's value (lower is better).
	Scores []float64
}

// Result is the outcome of a model-driven sweep.
type Result struct {
	Objectives []Objective
	// Evaluated is every candidate in design order.
	Evaluated []Candidate
	// Frontier is the Pareto-optimal subset (no candidate dominates
	// another on all objectives), in the order FrontierCollector.Frontier
	// reports: by scores, exact ties by configuration.
	Frontier []Candidate
}

// Options tunes the evaluation engine.
type Options struct {
	// Workers bounds evaluation parallelism. 0 means GOMAXPROCS.
	Workers int
	// Progress, when set, receives cumulative completed-design counts as
	// the sweep proceeds (once per finished chunk). It is called
	// concurrently from worker goroutines and counts may arrive slightly
	// out of order; consumers wanting a monotone gauge keep the maximum.
	// It must be cheap — it sits on the evaluation hot path.
	Progress func(completed int)
	// ChunkDone, when set, receives each finished chunk's design count
	// and wall time — the per-chunk latency signal observability layers
	// feed into histograms. Like Progress it is called concurrently from
	// worker goroutines and must be cheap and allocation-free; when nil
	// the engine does not even read the clock.
	ChunkDone func(designs int, elapsed time.Duration)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Sweep predicts dynamics for every design and scores it under each
// (model, objective) pair. models[i] produces the trace scored by
// objectives[i]; the two slices must align. It is SweepContext with a
// background context and default engine options.
func Sweep(designs []space.Config, models []core.DynamicsModel, objectives []Objective) (*Result, error) {
	//dsedlint:ignore ctxflow frozen pre-context compatibility wrapper; new callers use SweepContext
	return SweepContext(context.Background(), designs, models, objectives, Options{})
}

// SweepContext evaluates every design on a bounded worker pool and
// extracts the Pareto frontier. Results are in design order regardless of
// evaluation interleaving. On cancellation the context's error is
// returned and partial results are discarded.
func SweepContext(ctx context.Context, designs []space.Config, models []core.DynamicsModel, objectives []Objective, opts Options) (*Result, error) {
	if err := validateSweep(designs, models, objectives); err != nil {
		return nil, err
	}
	res := &Result{Objectives: objectives, Evaluated: make([]Candidate, len(designs))}
	// One flat backing array holds every candidate's scores: two
	// allocations for the whole sweep instead of one per design, and
	// workers' reusable score scratch is copied out here. Candidates are
	// assembled directly from designs, so each Config is copied into the
	// result exactly once.
	m := len(models)
	backing := make([]float64, len(designs)*m)
	err := evalChunks(ctx, designs, models, objectives, opts, nil, func(b *batch) {
		for k, i := range b.rows {
			dst := backing[i*m : (i+1)*m : (i+1)*m]
			copy(dst, b.scores[k*m:(k+1)*m])
			res.Evaluated[i] = Candidate{Config: designs[i], Scores: dst}
		}
	})
	if err != nil {
		return nil, err
	}
	res.Frontier = ParetoFrontier(res.Evaluated)
	slices.SortFunc(res.Frontier, frontierCmp)
	return res, nil
}

// Collector consumes evaluated candidates during a streaming sweep.
// SweepStream serialises Collect calls, so implementations need no
// internal locking; index identifies the design so collectors can stay
// deterministic under out-of-order arrival.
//
// The candidate's Scores slice is worker scratch, valid only for the
// duration of the Collect call — implementations must copy the values
// (not the slice) for anything they retain. TopK and FrontierCollector
// already do, recycling evicted buffers so steady-state collection stays
// allocation-free.
type Collector interface {
	Collect(index int, c Candidate)
}

// Screener is a Collector that would discard any candidate one of its
// retained candidates strictly dominates, and so lets a streaming sweep
// skip scoring such candidates altogether. FrontierCollector is one.
// SweepStream calls both methods under the same lock as Collect.
type Screener interface {
	Collector
	// AppendFrontierScores appends the scores of every retained
	// candidate, back to back, to dst and returns the extended slice.
	AppendFrontierScores(dst []float64) []float64
	// Skip records n candidates the sweep discarded unscored; they count
	// as offered.
	Skip(n int)
}

// SweepStream evaluates every design on a bounded worker pool and streams
// each candidate into the collectors instead of materialising the sweep.
// Candidates arrive exactly once each, tagged with their design index,
// but not necessarily in order — except designs a screened sweep skips
// (below), which arrive only as Skip counts. Memory stays proportional
// to what the collectors retain, not to len(designs).
//
// When every collector is a Screener, every model a core.Predictor (see
// Predictor.Bound) and every objective a MeanObjective or
// WorstCaseObjective, the sweep screens: it first brackets each design's
// objectives from the models' mean bounds — one network per model
// instead of k — and skips the design, reporting it through
// Screener.Skip, when a candidate the collectors already retained is at
// most every lower bound and below one of them. That candidate strictly dominates the design's real scores,
// so the collectors end up exactly as an unscreened sweep leaves them.
// Every other design is scored in full, so every collected score is
// bit-identical too. Each worker checks against its own copy of the
// retained scores, refreshed after each chunk it emits; a stale copy
// only screens less, since every retained candidate is a real evaluated
// design and dominance is transitive. Any other sweep scores every
// design.
func SweepStream(ctx context.Context, designs []space.Config, models []core.DynamicsModel, objectives []Objective, opts Options, collectors ...Collector) error {
	if err := validateSweep(designs, models, objectives); err != nil {
		return err
	}
	scr := newScreen(models, objectives, collectors)
	var mu sync.Mutex
	nm := len(models)
	return evalChunks(ctx, designs, models, objectives, opts, scr, func(b *batch) {
		mu.Lock()
		defer mu.Unlock()
		for k, i := range b.rows {
			cand := Candidate{
				Config: designs[i],
				Scores: b.scores[k*nm : (k+1)*nm : (k+1)*nm],
			}
			for _, col := range collectors {
				col.Collect(i, cand)
			}
		}
		if scr != nil {
			for v, sc := range scr.screeners {
				sc.Skip(b.screened)
				b.views[v] = sc.AppendFrontierScores(b.views[v][:0])
			}
		}
	})
}

// bounder is the model capability a screened sweep needs: a cheap
// bracket around the mean of the trace the model predicts, from the
// encoded features. core.Predictor has it; see its Bound.
type bounder interface {
	core.VecPredictor
	Bound(x []float64) (est, margin float64)
}

// screen is a streaming sweep's plan for skipping designs unscored: one
// mean bound per model and the collectors that must all vouch for a skip.
type screen struct {
	bounds    []bounder
	screeners []Screener
}

// newScreen returns the sweep's screen, or nil when a model cannot bound
// its trace mean, an objective is not bounded below by the trace mean,
// or a collector cannot screen.
func newScreen(models []core.DynamicsModel, objectives []Objective, collectors []Collector) *screen {
	if len(collectors) == 0 {
		return nil
	}
	scr := &screen{}
	for m, model := range models {
		b, ok := model.(bounder)
		if !ok || !objectives[m].meanBounded {
			return nil
		}
		scr.bounds = append(scr.bounds, b)
	}
	for _, col := range collectors {
		sc, ok := col.(Screener)
		if !ok {
			return nil
		}
		scr.screeners = append(scr.screeners, sc)
	}
	return scr
}

// beaten reports whether every view holds a score vector at most lb
// everywhere and below it somewhere. NaN on either side beats nothing.
func beaten(views [][]float64, lb []float64) bool {
	nm := len(lb)
	for _, v := range views {
		hit := false
		for o := 0; o+nm <= len(v) && !hit; o += nm {
			hit = below(v[o:o+nm], lb)
		}
		if !hit {
			return false
		}
	}
	return true
}

// below reports whether p ≤ lb everywhere and p < lb somewhere.
func below(p, lb []float64) bool {
	strictly := false
	for i, lo := range lb {
		if !(p[i] <= lo) {
			return false
		}
		if p[i] < lo {
			strictly = true
		}
	}
	return strictly
}

// ParallelFor runs fn(i) for every i in [0, n) on a bounded worker pool
// (workers ≤ 0 means GOMAXPROCS) — the engine's claim-off-a-cursor shape
// for callers whose per-item work doesn't fit the sweep API. Iterations
// stop being claimed once ctx is cancelled (in-flight ones finish) and
// the context's error is returned. fn must be safe for concurrent
// invocation on distinct indices.
func ParallelFor(ctx context.Context, n, workers int, fn func(i int)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

func validateSweep(designs []space.Config, models []core.DynamicsModel, objectives []Objective) error {
	if len(models) == 0 || len(models) != len(objectives) {
		return fmt.Errorf("explore: need matching models (%d) and objectives (%d)", len(models), len(objectives))
	}
	if len(designs) == 0 {
		return fmt.Errorf("explore: no designs to sweep")
	}
	return nil
}

// batch is one finished chunk as evalChunks hands it to emit. All of it
// is worker scratch, reused for the worker's next chunk, so emit must
// copy out values it retains.
type batch struct {
	// rows are the design indexes the chunk scored, ascending; scores
	// holds len(models) scores per row, back to back.
	rows   []int
	scores []float64
	// screened counts the chunk's designs a screened sweep skipped, and
	// views[v] is the worker's copy of screener v's retained scores,
	// which emit refreshes (screened sweeps only).
	screened int
	views    [][]float64
}

// evalChunks shards designs into contiguous chunks claimed by workers off
// an atomic cursor (cheaper than a per-design channel at model-query
// rates of millions per second). emit is called once per finished chunk,
// possibly concurrently, with the design indexes the chunk scored and
// their flat score matrix — callers reconstruct Candidates from
// designs[i], keeping the 200-byte Config out of the worker hot loop.
// With a non-nil scr, designs the worker's screen views beat are skipped
// instead of scored (see SweepStream).
//
// Each worker holds its own scratch — one trace buffer per model (reused
// through core.IntoPredictor when the model supports it) and one flat
// backing array for the chunk's scores — so the steady-state sweep
// performs zero heap allocations per design.
func evalChunks(ctx context.Context, designs []space.Config, models []core.DynamicsModel, objectives []Objective, opts Options, scr *screen, emit func(b *batch)) error {
	n := len(designs)
	workers := opts.workers()
	if workers > n {
		workers = n
	}
	var completed atomic.Int64
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > 512 {
		chunk = 512
	}
	// Models supporting scratch-reusing inference, resolved once instead of
	// once per design. intos[m] is nil when models[m] only offers Predict.
	// Vector-level models (vecs[m]) additionally share one feature encoding
	// per design: the plain encoding is a prefix of the DVM encoding, so a
	// single VectorDVMInto pass feeds models of either flavour.
	intos := make([]core.IntoPredictor, len(models))
	vecs := make([]core.VecPredictor, len(models))
	nfeat := make([]int, len(models))
	needVec, needDVM := false, false
	for i, model := range models {
		if ip, ok := model.(core.IntoPredictor); ok {
			intos[i] = ip
		}
		if vp, ok := model.(core.VecPredictor); ok {
			vecs[i] = vp
			nfeat[i] = vp.NumFeatures()
			needVec = true
			needDVM = needDVM || nfeat[i] > space.NumParams
		}
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nm := len(models)
			b := &batch{rows: make([]int, 0, chunk), scores: make([]float64, chunk*nm)}
			var lb []float64
			if scr != nil {
				lb = make([]float64, nm)
				b.views = make([][]float64, len(scr.screeners))
			}
			traces := make([][]float64, nm)
			var fbuf [space.MaxFeatures]float64
			for {
				start := int(cursor.Add(int64(chunk))) - chunk
				if start >= n || ctx.Err() != nil {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				var t0 time.Time
				if opts.ChunkDone != nil {
					t0 = time.Now()
				}
				b.rows, b.screened = b.rows[:0], 0
				for i := start; i < end; i++ {
					var x []float64
					if needVec {
						if needDVM {
							x = designs[i].VectorDVMInto(fbuf[:0])
						} else {
							x = designs[i].VectorInto(fbuf[:0])
						}
					}
					if scr != nil {
						for m, bd := range scr.bounds {
							est, margin := bd.Bound(x[:nfeat[m]])
							lb[m] = est - margin
						}
						if beaten(b.views, lb) {
							b.screened++
							continue
						}
					}
					j := len(b.rows)
					b.rows = append(b.rows, i)
					s := b.scores[j*nm : (j+1)*nm : (j+1)*nm]
					for m := range models {
						var trace []float64
						switch {
						case vecs[m] != nil:
							traces[m] = vecs[m].PredictVecInto(x[:nfeat[m]], traces[m])
							trace = traces[m]
						case intos[m] != nil:
							traces[m] = intos[m].PredictInto(designs[i], traces[m])
							trace = traces[m]
						default:
							trace = models[m].Predict(designs[i])
						}
						s[m] = objectives[m].Score(trace)
					}
				}
				emit(b)
				if opts.ChunkDone != nil {
					opts.ChunkDone(end-start, time.Since(t0))
				}
				if opts.Progress != nil {
					opts.Progress(int(completed.Add(int64(end - start))))
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// Constraint bounds one objective during constrained selection.
type Constraint struct {
	// Objective indexes Result.Objectives.
	Objective int
	// Max is the largest admissible score.
	Max float64
}

// Best returns the feasible candidate minimising the given objective, or
// ok=false when no candidate satisfies every constraint.
func (r *Result) Best(objective int, constraints []Constraint) (Candidate, bool) {
	if objective < 0 || objective >= len(r.Objectives) {
		panic(fmt.Sprintf("explore: objective %d out of range", objective))
	}
	top := NewTopK(1, objective, constraints)
	for i, c := range r.Evaluated {
		top.Collect(i, c)
	}
	best := top.Results()
	if len(best) == 0 {
		return Candidate{}, false
	}
	return best[0], true
}

// Report renders the frontier.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "explored %d designs; Pareto frontier has %d points\n", len(r.Evaluated), len(r.Frontier))
	for _, c := range r.Frontier {
		b.WriteString("  ")
		for i, obj := range r.Objectives {
			fmt.Fprintf(&b, "%s=%.4f ", obj.Name, c.Scores[i])
		}
		b.WriteString("| ")
		b.WriteString(c.Config.String())
		b.WriteByte('\n')
	}
	return b.String()
}
