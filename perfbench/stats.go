package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. xs need not be sorted; it is not modified. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile among n
// samples.
func rank(n int, p float64) int {
	// The tolerance keeps float error (99.9% of 10,000 computes as
	// 9990.000000000002) from pushing the rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentiles are the percentiles a timing may be reported at,
// highest first.
var tailPercentiles = []float64{99.9, 99, 90, 75, 50}

// reportableTail is the highest percentile in tailPercentiles that has
// at least ten samples beyond it among n samples, or 0 when even the
// median does not (fewer than 20 samples).
func reportableTail(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// medianDuration is median over durations, in the duration's unit.
func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// tally counts operations attempted and failed. A refused request, a
// transport error and a wrong answer each count once as failed.
type tally struct {
	attempted int
	failed    int
}

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// failedFrac is failed operations as a share of attempted; 0 when
// nothing was attempted.
func (t tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
