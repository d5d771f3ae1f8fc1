package core

import (
	"math"

	"repro/internal/mathx"
)

// A predicted trace is Σᵢ cᵢ·bᵢ over the selected positions: network i's
// output cᵢ times its reconstruction basis vector bᵢ. Its mean is therefore
// Σᵢ cᵢ·mean(bᵢ), and every wavelet detail basis has zero mean — for the
// average/difference Haar transform only position 0 (the scaling
// coefficient, basis all ones) contributes. So the mean of a trace costs
// one network evaluation instead of k, up to floating-point rounding that
// the margin below bounds from the model's weights. Exploration uses the
// bound to discard designs the current Pareto frontier already beats
// without predicting their traces (explore.SweepStream).
//
// The margin argument, with u = 2⁻⁵³, n the trace length, k the number of
// networks, Wᵢ = rbf.Network.OutputBound ≥ |cᵢ| and T = Σᵢ Wᵢ·max|bᵢ|:
//
//   - each trace entry is a k-term dot product, within k·u·T of exact;
//   - mathx.Mean of the trace adds at most (n+2)·u·T of rounding;
//   - each basis mean mean(bᵢ) is computed within (n+1)·u·max|bᵢ|, which
//     costs (n+1)·u·Wᵢ·max|bᵢ| for a kept position; a position whose
//     computed mean is within twice that of zero is treated as
//     zero-mean, costing at most 3(n+1)·u·Wᵢ·max|bᵢ|;
//   - the estimate's own sum over the kept positions adds (k+1)·u·T.
//
// The sum is below (2k+4n+6)·u·T, up to factors 1 + O(k·u). The stored
// margin is 16(k+n+1)·u·T,
// more than twice that, and Bound adds 4u·|est|, so est − margin and
// est + margin each stay on the safe side of the true mean after their
// own rounding. The margin covers both mathx.Mean of the computed trace
// and the exact mean of its entries, which lower-bounds mathx.Max.

// initBound derives the mean bound from the trained or loaded networks
// and basis vectors. Train and Load both call it, so the persisted format
// is unchanged and a loaded predictor bounds exactly like a trained one.
func (p *Predictor) initBound() {
	p.boundNets, p.boundMeans = nil, nil
	n := float64(p.traceLen)
	var t float64
	for i, b := range p.basis {
		maxAbs := 0.0
		for _, v := range b {
			maxAbs = math.Max(maxAbs, math.Abs(v))
		}
		t += p.nets[i].OutputBound() * maxAbs
		if m := mathx.Mean(b); math.Abs(m) > 2*(n+1)*epsilon*maxAbs {
			p.boundNets = append(p.boundNets, i)
			p.boundMeans = append(p.boundMeans, m)
		}
	}
	p.boundMargin = 16 * (float64(len(p.nets)) + n + 1) * epsilon * t
	if math.IsInf(4*n*t, 0) || math.IsNaN(t) {
		// A network without a finite output bound, or weights so large a
		// trace could overflow: no bound is proven.
		p.boundMargin = math.NaN()
	}
}

// epsilon is the unit roundoff of float64, 2⁻⁵³.
const epsilon = 0x1p-53

// Bound estimates the mean of the trace PredictVecInto(x, ·) would
// compute, from only the networks whose basis vector has a non-zero mean
// (for Haar, one network of k). For a finite x, est − margin and
// est + margin, each computed in float64, bracket both mathx.Mean of that
// trace and the exact mean of its entries; the latter is at most
// mathx.Max of the trace. A NaN est or margin bounds nothing; the margin
// is NaN for every x when the model's parameters prove no bound.
func (p *Predictor) Bound(x []float64) (est, margin float64) {
	for k, i := range p.boundNets {
		est += p.nets[i].Predict(x) * p.boundMeans[k]
	}
	return est, p.boundMargin + 4*epsilon*math.Abs(est)
}
