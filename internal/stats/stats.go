// Package stats provides the small statistical toolkit used by the
// experiment harness: streaming mean/variance (Welford), normal-theory
// confidence intervals, and plain-text table / CSV rendering for the
// reproduction reports.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates a sample mean and variance in one pass. The zero
// value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 for an empty sample).
func (w *Welford) Mean() float64 { return w.mean }

// Min and Max return the extremes of the sample.
func (w *Welford) Min() float64 { return w.min }
func (w *Welford) Max() float64 { return w.max }

// Var returns the unbiased sample variance.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Var()) }

// CI95 returns the half-width of the 95% normal-approximation confidence
// interval for the mean.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return 1.96 * w.Stddev() / math.Sqrt(float64(w.n))
}

func (w *Welford) String() string {
	return fmt.Sprintf("mean=%.3f ±%.3f (n=%d, min=%.3f, max=%.3f)",
		w.Mean(), w.CI95(), w.n, w.min, w.max)
}

// Quantile returns the q-quantile (0 <= q <= 1) of the data using linear
// interpolation. The input is not modified.
func Quantile(data []float64, q float64) float64 {
	if len(data) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// LinearFit returns the least-squares slope and intercept of y against x.
// It panics if the slices differ in length or have fewer than 2 points.
func LinearFit(x, y []float64) (slope, intercept float64) {
	if len(x) != len(y) || len(x) < 2 {
		panic("stats: LinearFit needs two equal-length samples of size >= 2")
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	n := float64(len(x))
	den := n*sxx - sx*sx
	if den == 0 {
		panic("stats: LinearFit with degenerate x")
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept
}

// LogLogSlope fits log(y) against log(x) and returns the exponent, the
// standard tool for checking power laws like the Theta(sqrt(p)) speedup of
// Team SOLVE. All inputs must be positive.
func LogLogSlope(x, y []float64) float64 {
	lx := make([]float64, len(x))
	ly := make([]float64, len(y))
	for i := range x {
		if x[i] <= 0 || y[i] <= 0 {
			panic("stats: LogLogSlope needs positive data")
		}
		lx[i] = math.Log(x[i])
		ly[i] = math.Log(y[i])
	}
	s, _ := LinearFit(lx, ly)
	return s
}
