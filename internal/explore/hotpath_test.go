package explore

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/space"
)

// trainedModels fits one real model of each family on a small synthetic
// set, so hot-path tests exercise the scratch-reusing IntoPredictor route
// through genuine wavelet/RBF inference.
func trainedModels(t testing.TB) []core.DynamicsModel {
	t.Helper()
	rng := mathx.NewRNG(40)
	train := space.LHS(100, space.TrainLevels(), space.Baseline(), rng)
	traces := make([][]float64, len(train))
	for i, cfg := range train {
		x := cfg.Vector()
		tr := make([]float64, 64)
		for s := range tr {
			tr[s] = 1 + 2*x[0]
			if s >= 16 && s < 32 {
				tr[s] += 3 * x[4]
			}
		}
		traces[i] = tr
	}
	opts := core.Options{NumCoefficients: 8}
	p, err := core.Train(train, traces, opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.TrainGlobalANN(train, traces, opts)
	if err != nil {
		t.Fatal(err)
	}
	return []core.DynamicsModel{p, g}
}

// predictOnly hides a model's PredictInto so sweeps fall back to the
// allocating Predict route.
type predictOnly struct{ m core.DynamicsModel }

func (p predictOnly) Predict(cfg space.Config) []float64 { return p.m.Predict(cfg) }

// TestSweepScratchPathMatchesReference is the old-vs-new property test:
// the scratch-reusing engine must score every design identically to the
// reference sequential loop over DynamicsModel.Predict, and identically
// whether or not models expose PredictInto.
func TestSweepScratchPathMatchesReference(t *testing.T) {
	models := trainedModels(t)
	fallback := make([]core.DynamicsModel, len(models))
	for i, m := range models {
		fallback[i] = predictOnly{m: m}
	}
	objectives := []Objective{MeanObjective("cpi"), WorstCaseObjective("cpi_peak")}
	rng := mathx.NewRNG(41)
	designs := space.Random(700, space.TestLevels(), space.Baseline(), rng)

	// Reference: the definitional path, one Predict per (design, model).
	want := make([][]float64, len(designs))
	for i, cfg := range designs {
		want[i] = make([]float64, len(models))
		for m, model := range models {
			want[i][m] = objectives[m].Score(model.Predict(cfg))
		}
	}

	for _, tc := range []struct {
		name   string
		models []core.DynamicsModel
	}{
		{"into", models}, {"predict-only", fallback},
	} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			res, err := SweepContext(context.Background(), designs, tc.models, objectives, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i := range designs {
				for m := range tc.models {
					if res.Evaluated[i].Scores[m] != want[i][m] {
						t.Fatalf("%s/workers=%d: design %d objective %d = %v, want %v",
							tc.name, workers, i, m, res.Evaluated[i].Scores[m], want[i][m])
					}
				}
			}
		}
	}
}

// TestSweepSteadyStateAllocs asserts the tentpole's zero-allocation
// contract: amortised over a large sweep, the per-design allocation count
// on the streaming path is (indistinguishable from) zero — only per-sweep
// setup (goroutines, worker scratch, collector retention) allocates.
func TestSweepSteadyStateAllocs(t *testing.T) {
	rng := mathx.NewRNG(42)
	const n = 8192
	designs := space.Random(n, space.TestLevels(), space.Baseline(), rng)
	ctx := context.Background()

	for _, tc := range allocCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(3, func() {
				if err := SweepStream(ctx, designs, tc.models, tc.objectives, Options{Workers: 1}, tc.collector()); err != nil {
					t.Fatal(err)
				}
			})
			if perDesign := allocs / n; perDesign > 0.01 {
				t.Errorf("streaming sweep allocates %.4f/design (%.0f total), want ≤0.01", perDesign, allocs)
			}
		})
	}
}

// allocCase is one streaming sweep shape whose per-design allocations
// the zero-alloc tests bound.
type allocCase struct {
	name       string
	models     []core.DynamicsModel
	objectives []Objective
	collector  func() Collector
}

// allocCases covers both streaming paths: top-K collection over a
// predictor and a baseline (the full path), and frontier collection over
// served-configuration gcc models (the screened path; its frontier over
// 8,192 random test-space designs has about 65 points).
func allocCases(t *testing.T) []allocCase {
	return []allocCase{
		{
			name:       "topk",
			models:     trainedModels(t),
			objectives: []Objective{MeanObjective("cpi"), WorstCaseObjective("cpi_peak")},
			collector:  func() Collector { return NewTopK(8, 0, nil) },
		},
		{
			name:       "frontier",
			models:     servedGCCModels(t),
			objectives: []Objective{MeanObjective("cpi"), MeanObjective("power")},
			collector:  func() Collector { return NewFrontierCollector() },
		},
	}
}

// TestInstrumentedSweepSteadyStateAllocs re-proves the zero-alloc
// contract with the observability hooks attached the way cmd/dsed
// attaches them: a Progress gauge and a ChunkDone observer feeding
// pre-registered obs histograms. Instrumentation must not buy its
// latency signal with per-design garbage.
func TestInstrumentedSweepSteadyStateAllocs(t *testing.T) {
	rng := mathx.NewRNG(43)
	const n = 8192
	designs := space.Random(n, space.TestLevels(), space.Baseline(), rng)
	ctx := context.Background()

	for _, tc := range allocCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry(nil)
			chunkMS := reg.Histogram("dsed_explore_chunk_ms", "", obs.LatencyMSBuckets)
			chunkN := reg.Histogram("dsed_explore_chunk_designs", "", obs.SizeBuckets)
			progress := reg.Gauge("dsed_explore_evaluated", "")
			opts := Options{
				Workers:  1,
				Progress: func(completed int) { progress.SetMax(float64(completed)) },
				ChunkDone: func(designs int, elapsed time.Duration) {
					chunkN.Observe(float64(designs))
					chunkMS.Observe(float64(elapsed.Microseconds()) / 1000)
				},
			}

			allocs := testing.AllocsPerRun(3, func() {
				if err := SweepStream(ctx, designs, tc.models, tc.objectives, opts, tc.collector()); err != nil {
					t.Fatal(err)
				}
			})
			if perDesign := allocs / n; perDesign > 0.01 {
				t.Errorf("instrumented sweep allocates %.4f/design (%.0f total), want ≤0.01", perDesign, allocs)
			}
			if chunkMS.Count() == 0 || chunkN.Count() == 0 {
				t.Errorf("chunk observer never fired")
			}
			if got := progress.Value(); got != n {
				t.Errorf("progress gauge = %v, want %d", got, n)
			}
		})
	}
}

// TestCollectorsCopyScratchScores proves collectors own their retained
// scores: corrupting the caller's Scores buffer after Collect must not
// change what the collector reports, and snapshots taken mid-collection
// must not be disturbed by later evictions recycling buffers.
func TestCollectorsCopyScratchScores(t *testing.T) {
	scratch := make([]float64, 2)
	offer := func(c Collector, i int, a, b float64) {
		scratch[0], scratch[1] = a, b
		c.Collect(i, Candidate{Scores: scratch})
		scratch[0], scratch[1] = -999, -999 // simulate worker reuse
	}

	top := NewTopK(2, 0, nil)
	offer(top, 0, 5, 1)
	offer(top, 1, 3, 1)
	offer(top, 2, 4, 1) // evicts 5, reuses its buffer
	got := top.Results()
	if got[0].Scores[0] != 3 || got[1].Scores[0] != 4 {
		t.Errorf("TopK results corrupted by scratch reuse: %v", got)
	}

	fc := NewFrontierCollector()
	offer(fc, 0, 5, 5)
	offer(fc, 1, 1, 9)
	snap := fc.Frontier()
	offer(fc, 2, 4, 4) // evicts (5,5); its buffer goes to the free list
	offer(fc, 3, 2, 2) // evicts (4,4); reuses a recycled buffer
	if len(snap) != 2 || snap[0].Scores[0] != 1 || snap[1].Scores[0] != 5 {
		t.Errorf("mid-sweep snapshot disturbed by later evictions: %v", snap)
	}
	final := fc.Frontier()
	if len(final) != 2 || final[0].Scores[0] != 1 || final[1].Scores[0] != 2 {
		t.Errorf("frontier corrupted by scratch reuse: %v", final)
	}
}
