// Package rbf implements Gaussian radial basis function networks whose
// centres and radii are harvested from a CART regression tree, following
// Orr et al., "Combining Regression Trees and Radial Basis Function
// Networks" (2000) — the training method named by the paper (Section 2.2).
//
// Each network has the parametric form
//
//	f(x) = Σᵢ wᵢ · exp(−‖(x − μᵢ) / θᵢ‖²)  (+ optional bias)
//
// where μᵢ is the centre vector and θᵢ the per-dimension radius vector of
// the i-th basis function, both derived from a tree node's hyperrectangle.
// Output weights are fit by ridge regression with the penalty chosen by
// generalised cross-validation (GCV).
package rbf

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mathx"
	"repro/internal/regtree"
)

// Options controls network construction.
type Options struct {
	// Tree configures the regression tree used for centre selection.
	Tree regtree.Options
	// RadiusScales lists candidate multipliers on each node's
	// hyperrectangle extent; the best-GCV scale wins (Orr's model
	// selection couples basis width with the ridge penalty). Wider bases
	// suppress spurious sensitivity to parameters the tree never split
	// on. Defaults to {1, 2, 4}.
	RadiusScales []float64
	// MinRadius floors each radius component to keep bases well conditioned
	// when a node collapses to zero extent in some dimension. Defaults to
	// 0.05 (inputs are expected to be normalised to [0,1]).
	MinRadius float64
	// Lambdas is the ridge-penalty grid searched by GCV. Defaults to a
	// logarithmic grid from 1e-8 to 10.
	Lambdas []float64
	// MaxCenters caps the number of basis functions; tree nodes are taken
	// shallowest-first (coarse structure before fine). Defaults to 80.
	MaxCenters int
	// NoBias omits the constant bias term when true.
	NoBias bool
	// DimLevels, when non-nil, lists per input dimension the values
	// inference will overwhelmingly see (e.g. normalised design-space
	// levels; an empty list marks a continuous dimension). The network
	// then adopts the factored kernel: each basis function is evaluated as
	// exp(−Σshared) times the product of the varying dimensions' factors
	// exp(−((xⱼ−μⱼ)/θⱼ)²) in ascending dimension order, and the factors of
	// every listed value are precomputed, so on-level inputs evaluate the
	// whole basis with a single exponential per network. Off-level values
	// fall back to computing the identical per-dimension factor on the
	// fly. The factored product differs from the fused exp-of-sum kernel
	// only by ~1e-15 relative rounding, and training fits weights through
	// the same evaluation, so the model remains exactly self-consistent.
	DimLevels [][]float64
}

func (o Options) withDefaults() Options {
	if len(o.RadiusScales) == 0 {
		o.RadiusScales = []float64{1, 2, 4}
	}
	if o.MinRadius <= 0 {
		o.MinRadius = 0.05
	}
	if len(o.Lambdas) == 0 {
		o.Lambdas = []float64{1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}
	}
	if o.MaxCenters <= 0 {
		o.MaxCenters = 80
	}
	return o
}

// Network is a trained RBF network.
type Network struct {
	centers [][]float64
	radii   [][]float64
	weights []float64 // basis weights; bias (if any) is the last entry
	hasBias bool

	// Inference-time tables derived from centers/radii by finalize.
	//
	// Dimensions the regression tree never split on are *shared*: every
	// node's hyperrectangle spans the full data range there, so all basis
	// functions carry an identical (centre, radius) pair in that dimension
	// and its squared-distance term can be computed once per input instead
	// of once per (input, centre). Bench traces typically depend on two or
	// three of the nine swept parameters, so most dimensions factor out.
	// The remaining *varying* dimensions are flattened row-major (stride
	// len(varyIdx)) with 1/radius reciprocals precomputed, so the inner
	// loop is a cache-friendly multiply-add with no division and no
	// per-centre pointer chase.
	dim          int
	sharedIdx    []int     // input indices with identical (centre, radius) everywhere
	sharedCenter []float64 // centre components for sharedIdx
	sharedInvRad []float64 // 1/radius components for sharedIdx
	varyIdx      []int     // input indices that differ across centres
	flatCenters  []float64 // varying centre components, row-major per centre
	flatInvRad   []float64 // varying 1/radius components, row-major per centre

	// Factored-kernel tables (Options.DimLevels). When factored is true
	// each basis function is defined as exp(−sharedSum) times the product
	// of per-varying-dimension factors, and these tables cache the
	// m-length factor columns of the declared level values.
	factored   bool
	dimLevels  [][]float64 // bound declaration, persisted with the model
	varyTabVal [][]float64 // per varying dim: declared values
	varyTabFac [][]float64 // per varying dim: columns, flattened [vi*m+c]

	lambda      float64
	gcv         float64
	radiusScale float64
	tree        *regtree.Tree
}

// finalize derives the factored inference tables. It must run before the
// first Predict — after training builds the basis and after UnmarshalJSON
// restores it.
func (n *Network) finalize() {
	n.dim = 0
	if len(n.centers) > 0 {
		n.dim = len(n.centers[0])
	}
	n.sharedIdx, n.sharedCenter, n.sharedInvRad = nil, nil, nil
	n.varyIdx = nil
	for j := 0; j < n.dim; j++ {
		c0, r0 := n.centers[0][j], n.radii[0][j]
		shared := true
		for i := 1; i < len(n.centers); i++ {
			if n.centers[i][j] != c0 || n.radii[i][j] != r0 {
				shared = false
				break
			}
		}
		if shared {
			n.sharedIdx = append(n.sharedIdx, j)
			n.sharedCenter = append(n.sharedCenter, c0)
			n.sharedInvRad = append(n.sharedInvRad, 1/r0)
		} else {
			n.varyIdx = append(n.varyIdx, j)
		}
	}
	stride := len(n.varyIdx)
	n.flatCenters = make([]float64, 0, len(n.centers)*stride)
	n.flatInvRad = make([]float64, 0, len(n.centers)*stride)
	for i, center := range n.centers {
		for _, j := range n.varyIdx {
			n.flatCenters = append(n.flatCenters, center[j])
			n.flatInvRad = append(n.flatInvRad, 1/n.radii[i][j])
		}
	}
}

// maxFactoredCenters and maxFactoredDims bound the factored kernel's
// per-call stack scratch; larger networks keep the fused kernel.
const (
	maxFactoredCenters = 256
	maxFactoredDims    = 16
)

// dimFactor is the single definition of one dimension's kernel factor —
// table construction and on-the-fly fallback both call it, so hits and
// misses are bit-identical.
func dimFactor(x, center, invRad float64) float64 {
	d := (x - center) * invRad
	return mathx.ExpFast(-(d * d))
}

// bindDimLevels switches the network to the factored kernel and
// precomputes per-dimension factors for the declared level values. It
// must run after finalize and before the training design matrix is built;
// a nil declaration (or an oversized basis) leaves the fused kernel.
func (n *Network) bindDimLevels(levels [][]float64) {
	n.factored = false
	n.dimLevels = nil
	n.varyTabVal, n.varyTabFac = nil, nil
	m := len(n.centers)
	if len(levels) == 0 || m == 0 || m > maxFactoredCenters || n.dim > maxFactoredDims {
		return
	}
	n.factored = true
	n.dimLevels = levels
	at := func(j int) []float64 {
		if j < len(levels) {
			return levels[j]
		}
		return nil
	}
	stride := len(n.varyIdx)
	n.varyTabVal = make([][]float64, stride)
	n.varyTabFac = make([][]float64, stride)
	for k, j := range n.varyIdx {
		vs := at(j)
		n.varyTabVal[k] = vs
		fac := make([]float64, len(vs)*m)
		for vi, v := range vs {
			for c := 0; c < m; c++ {
				fac[vi*m+c] = dimFactor(v, n.flatCenters[c*stride+k], n.flatInvRad[c*stride+k])
			}
		}
		n.varyTabFac[k] = fac
	}
}

// sharedFactor computes the shared dimensions' common factor
// exp(−sharedSum): one fused exponential for all of them, since the
// result is identical for every centre anyway.
func (n *Network) sharedFactor(x []float64) float64 {
	return mathx.ExpFast(-n.sharedSum(x))
}

// resolveCols looks up, once per evaluation, the precomputed factor column
// for x's value in each varying dimension (nil when the value is
// off-level and must be computed on the fly).
func (n *Network) resolveCols(x []float64, cols *[maxFactoredDims][]float64) {
	m := len(n.centers)
	for k, j := range n.varyIdx {
		xv := x[j]
		cols[k] = nil
		for vi, v := range n.varyTabVal[k] {
			if v == xv {
				cols[k] = n.varyTabFac[k][vi*m : (vi+1)*m]
				break
			}
		}
	}
}

// factoredBlock fills prod[0:cn] with the activations of centres
// [c0, c0+cn) under the factored kernel: the shared-dimension product s
// times each varying dimension's factor in ascending dimension order —
// the same multiply order whether a dimension hits its table or falls
// back, so hits and misses are bit-identical.
func (n *Network) factoredBlock(x []float64, s float64, cols *[maxFactoredDims][]float64, c0, cn int, prod *[blockSize]float64) {
	for i := 0; i < cn; i++ {
		prod[i] = s
	}
	stride := len(n.varyIdx)
	for k, j := range n.varyIdx {
		if col := cols[k]; col != nil {
			cb := col[c0 : c0+cn]
			for i := 0; i < cn; i++ {
				prod[i] *= cb[i]
			}
			continue
		}
		xv := x[j]
		for i := 0; i < cn; i++ {
			c := c0 + i
			prod[i] *= dimFactor(xv, n.flatCenters[c*stride+k], n.flatInvRad[c*stride+k])
		}
	}
}

// evalFactored writes every basis activation into dst[0:NumCenters] under
// the factored kernel. Declared level values hit the precomputed tables;
// anything else falls back to dimFactor, bit-identically.
func (n *Network) evalFactored(x []float64, dst []float64) {
	s := n.sharedFactor(x)
	var cols [maxFactoredDims][]float64
	n.resolveCols(x, &cols)
	var prod [blockSize]float64
	m := len(n.centers)
	for c0 := 0; c0 < m; c0 += blockSize {
		cn := m - c0
		if cn > blockSize {
			cn = blockSize
		}
		n.factoredBlock(x, s, &cols, c0, cn, &prod)
		for i := 0; i < cn; i++ {
			dst[c0+i] = prod[i]
		}
	}
}

// Train fits an RBF network to xs (n samples × d features) and ys.
func Train(xs [][]float64, ys []float64, opts Options) (*Network, error) {
	opts = opts.withDefaults()
	tree, err := regtree.Fit(xs, ys, opts.Tree)
	if err != nil {
		return nil, fmt.Errorf("rbf: %w", err)
	}
	return trainWithTree(tree, xs, ys, opts)
}

func trainWithTree(tree *regtree.Tree, xs [][]float64, ys []float64, opts Options) (*Network, error) {
	nodes := append([]*regtree.Node(nil), tree.Nodes()...)
	// Shallowest nodes first: they carry the coarse structure. Stable sort
	// keeps creation order within a depth.
	sort.SliceStable(nodes, func(a, b int) bool { return nodes[a].Depth < nodes[b].Depth })
	if len(nodes) > opts.MaxCenters {
		nodes = nodes[:opts.MaxCenters]
	}

	var best *Network
	bestGCV := math.Inf(1)
	for _, scale := range opts.RadiusScales {
		net, err := fitAtScale(tree, nodes, xs, ys, scale, opts)
		if err != nil {
			continue
		}
		if net.gcv < bestGCV {
			best, bestGCV = net, net.gcv
		}
	}
	if best == nil {
		return nil, fmt.Errorf("rbf: no (radius scale, ridge penalty) pair produced a well-posed fit (n=%d, centers≤%d)", len(xs), len(nodes))
	}
	return best, nil
}

// fitAtScale builds the basis at one radius scale and ridge-fits weights,
// selecting the penalty by GCV.
func fitAtScale(tree *regtree.Tree, nodes []*regtree.Node, xs [][]float64, ys []float64, scale float64, opts Options) (*Network, error) {
	net := &Network{hasBias: !opts.NoBias, tree: tree, radiusScale: scale}
	for _, node := range nodes {
		center := node.Center()
		radius := node.Extent()
		for j := range radius {
			radius[j] *= scale
			if radius[j] < opts.MinRadius {
				radius[j] = opts.MinRadius
			}
		}
		net.centers = append(net.centers, center)
		net.radii = append(net.radii, radius)
	}
	// Finalize (and bind the declared level factors) before building H so
	// training evaluates the basis through exactly the arithmetic Predict
	// will use — the fitted weights then match inference bit-for-bit.
	net.finalize()
	net.bindDimLevels(opts.DimLevels)

	n := len(xs)
	m := len(net.centers)
	cols := m
	if net.hasBias {
		cols++
	}
	h := mathx.NewMatrix(n, cols)
	for i, x := range xs {
		row := h.Row(i)
		net.evalBasisInto(x, row[:m])
		if net.hasBias {
			row[m] = 1
		}
	}

	gram := mathx.GramMatrix(h)
	rhs := mathx.MulTransVec(h, ys)

	bestGCV := math.Inf(1)
	var bestW []float64
	var bestLambda float64
	for _, lambda := range opts.Lambdas {
		sys := gram.Clone()
		for i := 0; i < cols; i++ {
			sys.Set(i, i, sys.At(i, i)+lambda)
		}
		fac, err := mathx.NewCholesky(sys)
		if err != nil {
			continue // too ill-conditioned at this λ; larger λ will succeed
		}
		w := fac.Solve(rhs)
		pred := h.MulVec(w)
		sse := 0.0
		for i := range ys {
			d := ys[i] - pred[i]
			sse += d * d
		}
		// tr(S) = m_eff − λ·tr((HᵀH+λI)⁻¹)
		trS := float64(cols) - lambda*fac.TraceInverse()
		dof := float64(n) - trS
		if dof < 1 {
			continue
		}
		gcv := float64(n) * sse / (dof * dof)
		if gcv < bestGCV {
			bestGCV, bestW, bestLambda = gcv, w, lambda
		}
	}
	if bestW == nil {
		return nil, fmt.Errorf("rbf: scale %v produced no well-posed fit", scale)
	}
	net.weights = bestW
	net.lambda = bestLambda
	net.gcv = bestGCV
	return net, nil
}

// blockSize is how many centres have their squared distances accumulated
// before the exponentials are taken: large enough that the independent
// mathx.ExpFast chains pipeline, small enough that the sums buffer lives
// in registers/stack.
const blockSize = 16

// sharedSum computes the squared-distance contribution of the shared
// dimensions — identical for every centre, so it seeds each centre's sum.
func (n *Network) sharedSum(x []float64) float64 {
	var s float64
	for k, j := range n.sharedIdx {
		d := (x[j] - n.sharedCenter[k]) * n.sharedInvRad[k]
		s += d * d
	}
	return s
}

// blockSums writes the negated squared-distance sums for centres
// [c0, c0+cn) into sums, accumulating only the varying dimensions on top
// of the precomputed shared contribution. This is the single definition of
// the basis-function argument: Predict, evalBasisInto (and through it the
// training design matrix) all evaluate distances through this function, so
// fitted weights match inference bit-for-bit.
func (n *Network) blockSums(x []float64, shared float64, c0, cn int, sums *[blockSize]float64) {
	stride := len(n.varyIdx)
	base := c0 * stride
	for i := 0; i < cn; i++ {
		sum := shared
		fc := n.flatCenters[base : base+stride]
		fr := n.flatInvRad[base : base+stride]
		for k, j := range n.varyIdx {
			d := (x[j] - fc[k]) * fr[k]
			sum += d * d
		}
		sums[i] = -sum
		base += stride
	}
}

// evalBasisInto writes every basis activation exp(−‖(x−μᵢ)/θᵢ‖²) into
// dst[0:NumCenters]. Training builds the design matrix through this
// function so the fitted weights are exactly consistent with Predict.
func (n *Network) evalBasisInto(x []float64, dst []float64) {
	if n.factored {
		n.evalFactored(x, dst)
		return
	}
	shared := n.sharedSum(x)
	var sums [blockSize]float64
	m := len(n.centers)
	for c0 := 0; c0 < m; c0 += blockSize {
		cn := m - c0
		if cn > blockSize {
			cn = blockSize
		}
		n.blockSums(x, shared, c0, cn, &sums)
		for i := 0; i < cn; i++ {
			dst[c0+i] = mathx.ExpFast(sums[i])
		}
	}
}

// Predict evaluates the network at x. It allocates nothing, so concurrent
// sweep workers can call it on shared networks at full speed. Centres are
// processed in blocks: squared distances for a block are accumulated
// first, then the exponentials are taken back to back so their
// independent dependency chains overlap in the pipeline.
func (n *Network) Predict(x []float64) float64 {
	if n.factored {
		s := n.sharedFactor(x)
		var cols [maxFactoredDims][]float64
		n.resolveCols(x, &cols)
		var prod [blockSize]float64
		var out float64
		m := len(n.centers)
		for c0 := 0; c0 < m; c0 += blockSize {
			cn := m - c0
			if cn > blockSize {
				cn = blockSize
			}
			n.factoredBlock(x, s, &cols, c0, cn, &prod)
			for i := 0; i < cn; i++ {
				out += n.weights[c0+i] * prod[i]
			}
		}
		if n.hasBias {
			out += n.weights[m]
		}
		return out
	}
	shared := n.sharedSum(x)
	var sums [blockSize]float64
	var out float64
	m := len(n.centers)
	for c0 := 0; c0 < m; c0 += blockSize {
		cn := m - c0
		if cn > blockSize {
			cn = blockSize
		}
		n.blockSums(x, shared, c0, cn, &sums)
		for i := 0; i < cn; i++ {
			out += n.weights[c0+i] * mathx.ExpFast(sums[i])
		}
	}
	if n.hasBias {
		out += n.weights[m]
	}
	return out
}

// PredictBatch evaluates the network at every row of xs, writing results
// into dst (which must have len(xs) capacity; pass dst[:0] of a reused
// buffer for an allocation-free call) and returning the filled slice.
// Each output is bit-identical to Predict on the same row — the batch
// form exists so block evaluation amortises bounds checks and keeps the
// flattened centre tables hot in cache across designs.
func (n *Network) PredictBatch(xs [][]float64, dst []float64) []float64 {
	for _, x := range xs {
		dst = append(dst, n.Predict(x))
	}
	return dst
}

// OutputBound returns B with |Predict(x)| ≤ B for every finite x. Each
// basis activation is ExpFast of a non-positive argument, or a product of
// such factors, so it lies in [0, 1] up to ExpFast's 1e-10 relative error;
// Σ|wᵢ| over the weights and the bias is then a bound up to that error and
// the rounding of Predict's own sum, which the 1e-6 relative slack covers.
// It is +Inf when a weight, centre or reciprocal radius is not finite:
// such a network can produce NaN activations, and no finite bound is
// proven.
func (n *Network) OutputBound() float64 {
	for _, vs := range [][]float64{n.weights, n.sharedCenter, n.sharedInvRad, n.flatCenters, n.flatInvRad} {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return math.Inf(1)
			}
		}
	}
	var b float64
	for _, w := range n.weights {
		b += math.Abs(w)
	}
	return b * (1 + 1e-6)
}

// NumCenters returns the number of basis functions (excluding the bias).
func (n *Network) NumCenters() int { return len(n.centers) }

// Lambda returns the GCV-selected ridge penalty.
func (n *Network) Lambda() float64 { return n.lambda }

// GCV returns the generalised cross-validation score of the selected fit.
func (n *Network) GCV() float64 { return n.gcv }

// RadiusScale returns the GCV-selected basis width multiplier.
func (n *Network) RadiusScale() float64 { return n.radiusScale }

// Tree returns the regression tree that seeded the centres; its split
// statistics drive the Figure 11 parameter-significance analysis.
func (n *Network) Tree() *regtree.Tree { return n.tree }
