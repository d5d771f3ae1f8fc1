package explore

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/wavelet"
)

// servedGCC memoises the served gcc CPI and Power models across tests:
// simulating the training set is most of their setup.
var servedGCC = sync.OnceValues(func() ([]core.DynamicsModel, error) {
	return trainServed("gcc", sim.MetricCPI, sim.MetricPower)
})

// servedGCCModels returns the memoised gcc CPI and Power models.
func servedGCCModels(tb testing.TB) []core.DynamicsModel {
	tb.Helper()
	models, err := servedGCC()
	if err != nil {
		tb.Fatal(err)
	}
	return models
}

// trainServed simulates one benchmark's training designs and fits one
// predictor per metric with the options dsed serves: 40 LHS designs,
// 64-sample traces of 65,536 instructions, k = 16 magnitude-selected
// Haar coefficients.
func trainServed(benchmark string, metrics ...sim.Metric) ([]core.DynamicsModel, error) {
	designs := space.SampleDesign(40, space.TrainLevels(), space.Baseline(), 10, mathx.NewRNG(1))
	jobs := make([]sim.Job, len(designs))
	for i, d := range designs {
		jobs[i] = sim.Job{Config: d, Benchmark: benchmark}
	}
	traces, err := sim.SweepContext(context.Background(), jobs, sim.Options{Instructions: 65536, Samples: 64}, 0)
	if err != nil {
		return nil, err
	}
	models := make([]core.DynamicsModel, len(metrics))
	for m, metric := range metrics {
		series := make([][]float64, len(traces))
		for i, tr := range traces {
			series[i] = tr.Series(metric)
		}
		p, err := core.Train(designs, series, core.Options{NumCoefficients: 16})
		if err != nil {
			return nil, err
		}
		models[m] = p
	}
	return models, nil
}

// screenTraces builds a 64-sample trace per design with a trade-off the
// frontier can see: level and phase bumps that fall with machine width
// and caches (the "CPI" shape, sign +1) or rise with them (the "power"
// shape, sign −1), plus a deterministic design-dependent ripple so no two
// designs predict alike.
func screenTraces(designs []space.Config, sign float64, dvm bool) [][]float64 {
	out := make([][]float64, len(designs))
	for i, cfg := range designs {
		x := cfg.VectorDVM()
		level := 3 + sign*(x[0]+0.5*x[1]+0.7*x[4]) + 0.3*x[3]*x[6]
		if dvm && cfg.DVM {
			level += 0.4 - x[space.NumParams+1]
		}
		tr := make([]float64, 64)
		for s := range tr {
			tr[s] = level + 0.2*math.Sin(float64(s)*(0.3+x[2])) + 0.05*float64((i*7+s*13)%11)/11
			if s >= 16 && s < 40 {
				tr[s] += sign * x[5] * 0.8
			}
		}
		out[i] = tr
	}
	return out
}

// screenModel fits one predictor on screenTraces under the given options.
func screenModel(t testing.TB, sign float64, opts core.Options) *core.Predictor {
	t.Helper()
	rng := mathx.NewRNG(uint64(60 + sign))
	train := space.LHS(90, space.TrainLevels(), space.Baseline(), rng)
	if opts.UseDVMFeatures {
		for i := range train {
			train[i].DVM = i%2 == 0
			train[i].DVMThreshold = 0.1 + 0.05*float64(i%8)
		}
	}
	p, err := core.Train(train, screenTraces(train, sign, opts.UseDVMFeatures), opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// zeroMeanModel fits a predictor on traces that alternate in sign, so
// their means are near zero and the scaling coefficient is among the
// smallest.
func zeroMeanModel(t testing.TB) *core.Predictor {
	t.Helper()
	train := space.LHS(90, space.TrainLevels(), space.Baseline(), mathx.NewRNG(62))
	traces := make([][]float64, len(train))
	for i, cfg := range train {
		x := cfg.Vector()
		traces[i] = make([]float64, 64)
		for s := range traces[i] {
			traces[i][s] = (1 + x[0] + x[4]*float64(s%3)) * float64(1-2*(s%2))
		}
	}
	p, err := core.Train(train, traces, core.Options{NumCoefficients: 16})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// unscreenedFrontier is the unscreened answer: SweepContext scores every
// design and reports ParetoFrontier of them in frontierCmp order.
func unscreenedFrontier(t *testing.T, designs []space.Config, models []core.DynamicsModel, objectives []Objective) []Candidate {
	t.Helper()
	res, err := SweepContext(context.Background(), designs, models, objectives, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Frontier
}

// TestScreenedFrontierExact is the screen's exactness contract: a
// SweepStream into a FrontierCollector reports bit for bit the frontier
// of every design scored in full — scores, configurations, order and
// Seen — whether or not the sweep screens, across objective kinds and
// counts, wavelets, selections, encodings and worker counts. Sweeps that
// must keep the full path screen nothing.
func TestScreenedFrontierExact(t *testing.T) {
	haar := core.Options{NumCoefficients: 16}
	cpi, pow, avf := screenModel(t, 1, haar), screenModel(t, -1, haar), screenModel(t, 0.5, haar)
	dvmOpts := core.Options{NumCoefficients: 16, UseDVMFeatures: true}
	cpiDVM, powDVM := screenModel(t, 1, dvmOpts), screenModel(t, -1, dvmOpts)
	order := core.Options{NumCoefficients: 12, Selection: core.SelectOrder}
	cpiOrder, powOrder := screenModel(t, 1, order), screenModel(t, -1, order)
	daub := core.Options{NumCoefficients: 16, Wavelet: wavelet.Daubechies4{}}
	cpiDaub, powDaub := screenModel(t, 1, daub), screenModel(t, -1, daub)
	// Zero-mean traces leave the scaling coefficient out of the magnitude
	// selection: every detail basis has zero mean, so every predicted
	// mean is ~0, the bound is the margin alone and nothing is screened.
	noScale := zeroMeanModel(t)
	if noScale.SelectedCoefficients()[0] == 0 {
		t.Fatal("zero-mean fixture selected the scaling coefficient")
	}

	rng := mathx.NewRNG(61)
	train := space.LHS(90, space.TrainLevels(), space.Baseline(), rng)
	ann, err := core.TrainGlobalANN(train, screenTraces(train, -1, false), haar)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := core.TrainLinearWavelet(train, screenTraces(train, 1, false), haar)
	if err != nil {
		t.Fatal(err)
	}

	designs := space.Random(1500, space.TestLevels(), space.Baseline(), rng)
	dvmDesigns := slices.Clone(designs)
	for i := range dvmDesigns {
		dvmDesigns[i].DVM = i%3 != 0
		dvmDesigns[i].DVMThreshold = 0.1 + 0.05*float64(i%7)
	}
	mean, worst, exceed := MeanObjective("m"), WorstCaseObjective("w"), ExceedanceObjective("e", 3)

	for _, tc := range []struct {
		name       string
		designs    []space.Config
		models     []core.DynamicsModel
		objectives []Objective
		screens    bool
	}{
		{"2obj/served-gcc", designs, servedGCCModels(t), []Objective{mean, mean}, true},
		{"1obj/mean", designs, []core.DynamicsModel{cpi}, []Objective{mean}, true},
		{"2obj/mean-mean", designs, []core.DynamicsModel{cpi, pow}, []Objective{mean, mean}, true},
		{"2obj/mean-worst", designs, []core.DynamicsModel{cpi, pow}, []Objective{mean, worst}, true},
		{"3obj/mean-mean-worst", designs, []core.DynamicsModel{cpi, pow, avf}, []Objective{mean, mean, worst}, true},
		{"2obj/dvm", dvmDesigns, []core.DynamicsModel{cpiDVM, powDVM}, []Objective{mean, mean}, true},
		{"2obj/dvm-mixed", dvmDesigns, []core.DynamicsModel{cpiDVM, pow}, []Objective{mean, worst}, true},
		{"2obj/select-order", designs, []core.DynamicsModel{cpiOrder, powOrder}, []Objective{mean, mean}, true},
		{"2obj/daub4", designs, []core.DynamicsModel{cpiDaub, powDaub}, []Objective{mean, mean}, true},
		{"2obj/no-scaling", designs, []core.DynamicsModel{cpi, noScale}, []Objective{mean, mean}, false},
		{"2obj/exceedance", designs, []core.DynamicsModel{cpi, pow}, []Objective{mean, exceed}, false},
		{"3obj/exceedance", designs, []core.DynamicsModel{cpi, pow, avf}, []Objective{exceed, mean, worst}, false},
		{"2obj/nan-bound", designs, []core.DynamicsModel{cpi, nanBound{pow}}, []Objective{mean, mean}, false},
		{"2obj/global-ann", designs, []core.DynamicsModel{cpi, ann}, []Objective{mean, mean}, false},
		{"2obj/linear-wavelet", designs, []core.DynamicsModel{lin, pow}, []Objective{mean, mean}, false},
	} {
		want := unscreenedFrontier(t, tc.designs, tc.models, tc.objectives)
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				fc := NewFrontierCollector()
				err := SweepStream(context.Background(), tc.designs, tc.models, tc.objectives, Options{Workers: workers}, fc)
				if err != nil {
					t.Fatal(err)
				}
				if fc.Seen() != len(tc.designs) {
					t.Errorf("Seen() = %d, want %d", fc.Seen(), len(tc.designs))
				}
				assertSameFrontier(t, fc.Frontier(), want)
				if tc.screens && fc.Screened() == 0 {
					t.Errorf("screenable sweep screened nothing")
				}
				if !tc.screens && fc.Screened() != 0 {
					t.Errorf("full-path sweep screened %d designs", fc.Screened())
				}
				t.Logf("frontier %d points, %d of %d designs screened", len(want), fc.Screened(), fc.Seen())
			})
		}
	}
}

// nanBound is a bounded predictor whose bound is always NaN.
type nanBound struct{ *core.Predictor }

func (nanBound) Bound([]float64) (est, margin float64) { return math.NaN(), 0 }

// TestNaNBeatsNothing checks the screen's comparison directly: a NaN
// lower bound, or a NaN retained score, never lets a design be skipped,
// and neither does a retained point that only ties the bound.
func TestNaNBeatsNothing(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		view, lb []float64
		want     bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 2}, true},
		{[]float64{2, 2}, []float64{2, 2}, false},
		{[]float64{1, 1}, []float64{nan, 2}, false},
		{[]float64{1, 1}, []float64{nan, nan}, false},
		{[]float64{nan, 1}, []float64{2, 2}, false},
		{[]float64{3, 3, 1, 1}, []float64{2, nan}, false},
	} {
		if got := beaten([][]float64{tc.view}, tc.lb); got != tc.want {
			t.Errorf("beaten(%v, %v) = %v, want %v", tc.view, tc.lb, got, tc.want)
		}
	}
}

// collectOnly hides a collector's Screener methods, so a sweep into it
// takes the full path.
type collectOnly struct{ c Collector }

func (o collectOnly) Collect(i int, c Candidate) { o.c.Collect(i, c) }

// assertSameFrontier compares two reported frontiers bit for bit.
func assertSameFrontier(t *testing.T, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("frontier has %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Config != want[i].Config {
			t.Fatalf("point %d config %v, want %v", i, got[i].Config, want[i].Config)
		}
		for j := range want[i].Scores {
			if math.Float64bits(got[i].Scores[j]) != math.Float64bits(want[i].Scores[j]) {
				t.Fatalf("point %d score %d = %v, want %v", i, j, got[i].Scores[j], want[i].Scores[j])
			}
		}
	}
}

// BenchmarkParetoScreen measures one served-configuration frontier —
// gcc CPI mean × Power mean at k = 16 over the full 245,760-design train
// space, one worker — on the full path (every design predicted) and on
// the screened path SweepStream takes for frontier collection.
func BenchmarkParetoScreen(b *testing.B) {
	models := servedGCCModels(b)
	designs := space.TrainLevels().FullFactorial(space.Baseline())
	objectives := []Objective{MeanObjective("cpi"), MeanObjective("power")}
	ctx := context.Background()
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fc := NewFrontierCollector()
			if err := SweepStream(ctx, designs, models, objectives, Options{Workers: 1}, collectOnly{fc}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(designs))*float64(b.N)/b.Elapsed().Seconds(), "designs/s")
	})
	b.Run("screened", func(b *testing.B) {
		var fc *FrontierCollector
		for i := 0; i < b.N; i++ {
			fc = NewFrontierCollector()
			if err := SweepStream(ctx, designs, models, objectives, Options{Workers: 1}, fc); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(designs))*float64(b.N)/b.Elapsed().Seconds(), "designs/s")
		b.ReportMetric(float64(fc.Seen()-fc.Screened())/float64(fc.Seen()), "rescored/design")
	})
}
