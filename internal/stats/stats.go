// Package stats provides the statistical machinery used by the estimators
// and the experiment harness: streaming moment accumulators, quantiles,
// error metrics, rank correlations, concentration bounds (including the
// non-asymptotic MCMC Hoeffding bound the paper builds Theorem 1 on), and
// chain diagnostics such as autocorrelation and batch-means effective
// sample size.
package stats

import (
	"math"
	"sort"
)

// Welford is a streaming accumulator for count, mean, variance, min and
// max using Welford's numerically stable update. The zero value is ready
// to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// AddAll folds every value of xs into the accumulator.
func (w *Welford) AddAll(xs []float64) {
	for _, x := range xs {
		w.Add(x)
	}
}

// Mean returns the sample mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// PopVariance returns the population (biased) variance.
func (w *Welford) PopVariance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the unbiased sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs.
func Variance(xs []float64) float64 {
	var w Welford
	w.AddAll(xs)
	return w.Variance()
}

// Quantile returns the q-quantile (q in [0,1]) of xs using linear
// interpolation between order statistics. It returns NaN on empty input
// and panics on q outside [0,1]. The input is not modified.
func Quantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// MeanAbsError returns the mean of |est[i]-truth[i]|. The slices must be
// the same length; it panics otherwise.
func MeanAbsError(est, truth []float64) float64 {
	if len(est) != len(truth) {
		panic("stats: MeanAbsError length mismatch")
	}
	if len(est) == 0 {
		return 0
	}
	var s float64
	for i := range est {
		s += math.Abs(est[i] - truth[i])
	}
	return s / float64(len(est))
}

// RelError returns |est-truth|/|truth|, or |est| when truth == 0 (so a
// correct zero estimate scores 0 rather than NaN).
func RelError(est, truth float64) float64 {
	if truth == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-truth) / math.Abs(truth)
}

// Pearson returns the Pearson correlation coefficient of x and y.
// It returns 0 when either side has zero variance.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("stats: Pearson length mismatch")
	}
	n := len(x)
	if n == 0 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
