package core

import (
	"bytes"
	"context"
	"math"
	"math/big"
	"testing"

	"repro/internal/mathx"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/wavelet"
	"repro/internal/workload"
)

// boundStats records the largest estimate error and margin checked.
type boundStats struct {
	checked   int
	worstErr  float64 // largest |mathx.Mean − est|
	maxMargin float64
}

// checkBound asserts Bound's contract at one feature vector: est ± margin,
// each rounded as a caller computes it, brackets mathx.Mean of the
// predicted trace and the exact mean of its entries, and est − margin is
// at most mathx.Max of the trace.
func checkBound(t *testing.T, p *Predictor, x []float64, st *boundStats) {
	t.Helper()
	trace := p.PredictVecInto(x, nil)
	est, margin := p.Bound(x)
	lo, hi := est-margin, est+margin
	mean := mathx.Mean(trace)
	if !(lo <= mean && mean <= hi) {
		t.Fatalf("mathx.Mean %v outside [%v, %v] (est %v, margin %v)", mean, lo, hi, est, margin)
	}
	exact := exactMean(trace)
	if exact.Cmp(big.NewFloat(lo)) < 0 || exact.Cmp(big.NewFloat(hi)) > 0 {
		t.Fatalf("exact mean %v outside [%v, %v]", exact, lo, hi)
	}
	if max := mathx.Max(trace); !(lo <= max) {
		t.Fatalf("mathx.Max %v below lower bound %v", max, lo)
	}
	st.checked++
	st.worstErr = math.Max(st.worstErr, math.Abs(mean-est))
	st.maxMargin = math.Max(st.maxMargin, margin)
}

// exactMean is the mean of xs in exact arithmetic: 4096 bits hold any
// sum of 64 doubles, and the trace lengths are powers of two.
func exactMean(xs []float64) *big.Float {
	sum := new(big.Float).SetPrec(4096)
	for _, v := range xs {
		sum.Add(sum, big.NewFloat(v))
	}
	return sum.Quo(sum, big.NewFloat(float64(len(xs))))
}

// roundTrip saves and reloads p.
func roundTrip(t *testing.T, p *Predictor) *Predictor {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// checkBoundsAndRoundTrip checks the bound of p and of its Load round
// trip at every design, and that the two bound bit for bit alike.
func checkBoundsAndRoundTrip(t *testing.T, p *Predictor, designs []space.Config, st *boundStats) {
	t.Helper()
	if math.IsNaN(p.boundMargin) {
		t.Fatal("trained predictor has no proven bound")
	}
	q := roundTrip(t, p)
	for _, cfg := range designs {
		x := p.opts.featureVector(cfg)
		checkBound(t, p, x, st)
		checkBound(t, q, x, st)
		e1, m1 := p.Bound(x)
		e2, m2 := q.Bound(x)
		if math.Float64bits(e1) != math.Float64bits(e2) || math.Float64bits(m1) != math.Float64bits(m2) {
			t.Fatalf("loaded bound (%v ± %v) differs from trained (%v ± %v)", e2, m2, e1, m1)
		}
	}
}

// TestBoundSoundAcrossVariants checks the bound over every wavelet,
// both encodings and both selection schemes, trained and reloaded.
func TestBoundSoundAcrossVariants(t *testing.T) {
	for _, w := range []wavelet.Transform{wavelet.Haar{}, wavelet.HaarOrthonormal{}, wavelet.Daubechies4{}} {
		for _, dvm := range []bool{false, true} {
			for _, sel := range []Selection{SelectMagnitude, SelectOrder} {
				name := w.Name() + "/" + sel.String()
				if dvm {
					name += "/dvm"
				}
				t.Run(name, func(t *testing.T) {
					p, test := trainVariant(t, w, dvm)
					if sel == SelectOrder {
						train, _ := sampleConfigs(100, 0, 21)
						var err error
						p, err = Train(train, tracesFor(train, 64), Options{Wavelet: w, NumCoefficients: 8, Selection: sel, UseDVMFeatures: dvm})
						if err != nil {
							t.Fatal(err)
						}
					}
					// Haar's scaling basis is all ones and its details sum
					// to zero exactly: one network carries the mean.
					if w.Name() == "haar" && (len(p.boundNets) != 1 || p.boundNets[0] != 0 || p.boundMeans[0] != 1) {
						t.Errorf("haar bound networks %v means %v, want [0] and [1]", p.boundNets, p.boundMeans)
					}
					if len(p.boundNets) == 0 || len(p.boundNets) >= p.NumNetworks() {
						t.Errorf("bound evaluates %d of %d networks", len(p.boundNets), p.NumNetworks())
					}
					var st boundStats
					checkBoundsAndRoundTrip(t, p, test, &st)
					t.Logf("%d checks, worst |mean−est| %.3g, margin ≤ %.3g", st.checked, st.worstErr, st.maxMargin)
				})
			}
		}
	}
}

// TestBoundWithoutScalingCoefficient checks a selection that omits
// position 0: no network carries the mean, est is 0 and the margin alone
// must cover the rounding of the detail bases' zero sums.
func TestBoundWithoutScalingCoefficient(t *testing.T) {
	p, test := trainVariant(t, wavelet.Haar{}, false)
	p.selected, p.nets = p.selected[1:], p.nets[1:]
	p.basis = waveletBasis(p.opts.Wavelet, p.traceLen, p.selected)
	p.basisLo, p.basisHi = basisSpans(p.basis)
	p.initBound()
	if len(p.boundNets) != 0 {
		t.Fatalf("bound networks %v, want none", p.boundNets)
	}
	var st boundStats
	checkBoundsAndRoundTrip(t, p, test, &st)
}

// TestBoundNaN checks a NaN input propagates to a NaN estimate, which
// bounds nothing: the scaling network reads every input dimension.
func TestBoundNaN(t *testing.T) {
	p, test := trainVariant(t, wavelet.Haar{}, false)
	x := test[0].Vector()
	x[3] = math.NaN()
	if est, _ := p.Bound(x); !math.IsNaN(est) {
		t.Errorf("Bound of a NaN input = %v, want NaN", est)
	}
}

// TestServedPredictorBoundsSound checks the bound of every predictor the
// daemon serves — every workload profile, every metric, with the served
// model options (64-sample traces, k = 16 magnitude-selected Haar
// coefficients) — trained on a reduced simulation budget and reloaded,
// over a sample of train- and test-space designs.
func TestServedPredictorBoundsSound(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every workload profile: skipped with -short")
	}
	rng := mathx.NewRNG(5)
	train := space.SampleDesign(24, space.TrainLevels(), space.Baseline(), 2, rng)
	designs := append(space.Random(150, space.TrainLevels(), space.Baseline(), rng),
		space.Random(150, space.TestLevels(), space.Baseline(), rng)...)
	var st boundStats
	for _, bench := range workload.Names() {
		jobs := make([]sim.Job, len(train))
		for i, cfg := range train {
			jobs[i] = sim.Job{Config: cfg, Benchmark: bench}
		}
		traces, err := sim.SweepContext(context.Background(), jobs, sim.Options{Instructions: 16384, Samples: 64}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, metric := range []sim.Metric{sim.MetricCPI, sim.MetricPower, sim.MetricAVF} {
			series := make([][]float64, len(traces))
			for i, tr := range traces {
				series[i] = tr.Series(metric)
			}
			p, err := Train(train, series, Options{NumCoefficients: 16})
			if err != nil {
				t.Fatal(err)
			}
			t.Run(bench+"/"+metric.String(), func(t *testing.T) {
				checkBoundsAndRoundTrip(t, p, designs, &st)
			})
		}
	}
	t.Logf("%d checks, worst |mean−est| %.3g, margin ≤ %.3g", st.checked, st.worstErr, st.maxMargin)
}
