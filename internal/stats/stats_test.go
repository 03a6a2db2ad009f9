package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Histogram is a fixed-bin histogram over [Lo, Hi). Values outside the
// range are clamped into the first/last bin so no observation is lost.
// No program uses it; it lives beside its tests.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with bins equal-width bins over
// [lo, hi). It panics if bins <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: NewHistogram with non-positive bins")
	}
	if hi <= lo {
		panic("stats: NewHistogram with hi <= lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	b := int(math.Floor((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts))))
	if b < 0 {
		b = 0
	}
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	h.Counts[b]++
	h.total++
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() int { return h.total }

// Fraction returns the share of observations in bin b.
func (h *Histogram) Fraction(b int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[b]) / float64(h.total)
}

// String renders a compact ASCII bar chart, one line per bin, suitable
// for experiment logs.
func (h *Histogram) String() string {
	var sb strings.Builder
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		bar := 0
		if maxCount > 0 {
			bar = c * 40 / maxCount
		}
		fmt.Fprintf(&sb, "[%10.4g,%10.4g) %7d %s\n",
			h.Lo+float64(i)*width, h.Lo+float64(i+1)*width, c,
			strings.Repeat("#", bar))
	}
	return sb.String()
}

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if !almostEq(w.Mean(), 5, 1e-12) {
		t.Fatalf("mean %v", w.Mean())
	}
	// Population variance of this classic dataset is 4.
	if !almostEq(w.PopVariance(), 4, 1e-12) {
		t.Fatalf("pop variance %v", w.PopVariance())
	}
	if !almostEq(w.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("variance %v", w.Variance())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, -3, 0.5}
	var whole Welford
	whole.AddAll(xs)
	var a, b Welford
	a.AddAll(xs[:5])
	b.AddAll(xs[5:])
	a.Merge(&b)
	if a.N() != whole.N() || !almostEq(a.Mean(), whole.Mean(), 1e-12) ||
		!almostEq(a.Variance(), whole.Variance(), 1e-9) ||
		a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merge mismatch: %+v vs %+v", a, whole)
	}
}

func TestWelfordMergeEmptySides(t *testing.T) {
	var a, b Welford
	b.Add(3)
	a.Merge(&b) // empty <- nonempty
	if a.N() != 1 || a.Mean() != 3 {
		t.Fatalf("merge into empty: %+v", a)
	}
	var c Welford
	a.Merge(&c) // nonempty <- empty
	if a.N() != 1 {
		t.Fatal("merge of empty changed accumulator")
	}
}

func TestWelfordMergeProperty(t *testing.T) {
	f := func(raw []float64, cut uint8) bool {
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			if math.Abs(v) > 1e12 {
				return true // avoid pathological float cancellation
			}
		}
		if len(raw) == 0 {
			return true
		}
		k := int(cut) % len(raw)
		var whole, a, b Welford
		whole.AddAll(raw)
		a.AddAll(raw[:k])
		b.AddAll(raw[k:])
		a.Merge(&b)
		scale := 1 + math.Abs(whole.Variance())
		return a.N() == whole.N() &&
			almostEq(a.Mean(), whole.Mean(), 1e-6*(1+math.Abs(whole.Mean()))) &&
			almostEq(a.Variance(), whole.Variance(), 1e-6*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanVarianceSlices(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatalf("mean %v", Mean(xs))
	}
	if !almostEq(Variance(xs), 5.0/3.0, 1e-12) {
		t.Fatalf("variance %v", Variance(xs))
	}
	if Mean(nil) != 0 {
		t.Fatal("mean of empty should be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 3 || Quantile(xs, 0.5) != 2 {
		t.Fatal("basic quantiles wrong")
	}
	if !almostEq(Quantile(xs, 0.25), 1.5, 1e-12) {
		t.Fatalf("interpolated quantile %v", Quantile(xs, 0.25))
	}
	// Input must be unmodified.
	if xs[0] != 3 {
		t.Fatal("Quantile mutated input")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
	if Median([]float64{5}) != 5 {
		t.Fatal("single-element median")
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("q>1 did not panic")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestErrorMetrics(t *testing.T) {
	est := []float64{1, 2, 3}
	truth := []float64{1, 1, 5}
	if !almostEq(MeanAbsError(est, truth), 1, 1e-12) {
		t.Fatalf("MAE %v", MeanAbsError(est, truth))
	}
	if MaxAbsError(est, truth) != 2 {
		t.Fatalf("MaxAE %v", MaxAbsError(est, truth))
	}
	if !almostEq(RMSE(est, truth), math.Sqrt(5.0/3.0), 1e-12) {
		t.Fatalf("RMSE %v", RMSE(est, truth))
	}
}

func TestRelError(t *testing.T) {
	if RelError(1.1, 1.0) > 0.100001 || RelError(1.1, 1.0) < 0.099999 {
		t.Fatal("RelError basic")
	}
	if RelError(0.25, 0) != 0.25 {
		t.Fatal("RelError with zero truth should return |est|")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if !almostEq(Pearson(x, x), 1, 1e-12) {
		t.Fatal("self correlation != 1")
	}
	neg := []float64{4, 3, 2, 1}
	if !almostEq(Pearson(x, neg), -1, 1e-12) {
		t.Fatal("reversed correlation != -1")
	}
	if Pearson(x, []float64{2, 2, 2, 2}) != 0 {
		t.Fatal("constant series should give 0")
	}
}

func TestRanks(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks %v want %v", r, want)
		}
	}
}

func TestSpearmanMonotone(t *testing.T) {
	x := []float64{1, 5, 2, 8, 3}
	y := []float64{2, 50, 4, 1000, 6} // monotone transform of x
	if !almostEq(Spearman(x, y), 1, 1e-12) {
		t.Fatalf("spearman %v", Spearman(x, y))
	}
}

func TestKendallTau(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if !almostEq(KendallTau(x, x), 1, 1e-12) {
		t.Fatal("tau(x,x) != 1")
	}
	rev := []float64{5, 4, 3, 2, 1}
	if !almostEq(KendallTau(x, rev), -1, 1e-12) {
		t.Fatal("tau reversed != -1")
	}
	// One swap in 4 elements: 5 concordant, 1 discordant → 4/6.
	if !almostEq(KendallTau([]float64{1, 2, 3, 4}, []float64{1, 3, 2, 4}), 4.0/6.0, 1e-12) {
		t.Fatal("tau single swap")
	}
	if KendallTau([]float64{1}, []float64{1}) != 0 {
		t.Fatal("tau on singleton should be 0")
	}
}

func TestKendallTauTies(t *testing.T) {
	// With ties τ-b is still within [-1, 1] and symmetric.
	x := []float64{1, 1, 2, 3}
	y := []float64{2, 2, 4, 4}
	a := KendallTau(x, y)
	b := KendallTau(y, x)
	if !almostEq(a, b, 1e-12) {
		t.Fatalf("tau not symmetric: %v vs %v", a, b)
	}
	if a < -1 || a > 1 {
		t.Fatalf("tau out of range: %v", a)
	}
}

func TestTopKOverlap(t *testing.T) {
	x := []float64{9, 8, 1, 2}
	y := []float64{9, 1, 8, 2}
	if got := TopKOverlap(x, y, 2); got != 0.5 {
		t.Fatalf("overlap %v", got)
	}
	if got := TopKOverlap(x, x, 3); got != 1 {
		t.Fatalf("self overlap %v", got)
	}
}

func TestHoeffdingN(t *testing.T) {
	n := HoeffdingN(0.01, 0.1)
	// ln(20)/(2·1e-4) ≈ 14979
	if n < 14000 || n > 16000 {
		t.Fatalf("HoeffdingN = %d", n)
	}
	// Monotonicity: tighter eps → more samples.
	if HoeffdingN(0.005, 0.1) <= n {
		t.Fatal("HoeffdingN not monotone in eps")
	}
}

func TestHoeffdingBound(t *testing.T) {
	if b := HoeffdingBound(0, 0.1); b != 2 {
		t.Fatalf("n=0 bound %v", b)
	}
	if HoeffdingBound(1000, 0.1) >= HoeffdingBound(100, 0.1) {
		t.Fatal("bound not decreasing in n")
	}
}

func TestMCMCBound(t *testing.T) {
	// Vacuous regime: T small enough that 2eps/mu <= 3/T.
	if MCMCBound(10, 0.01, 1) != 1 {
		t.Fatal("expected vacuous bound 1")
	}
	// Decreasing in T once informative.
	b1 := MCMCBound(100000, 0.01, 2)
	b2 := MCMCBound(400000, 0.01, 2)
	if b2 >= b1 {
		t.Fatalf("MCMC bound not decreasing: %v -> %v", b1, b2)
	}
	// Increasing in mu (worse concentration).
	if MCMCBound(100000, 0.01, 4) <= MCMCBound(100000, 0.01, 2) {
		t.Fatal("MCMC bound should grow with mu")
	}
	if b := MCMCBound(5, 10, 0.001); b > 1 {
		t.Fatal("bound must be capped at 1")
	}
}

func TestMCMCSampleSize(t *testing.T) {
	// mu=1 should match Hoeffding exactly (iid case).
	if MCMCSampleSize(0.01, 0.1, 1) != HoeffdingN(0.01, 0.1) {
		t.Fatal("mu=1 should reduce to Hoeffding")
	}
	// Quadratic in mu.
	a := MCMCSampleSize(0.01, 0.1, 1)
	b := MCMCSampleSize(0.01, 0.1, 2)
	if b < 4*a-4 || b > 4*a+4 {
		t.Fatalf("sample size not ~quadratic in mu: %d vs %d", a, b)
	}
}

func TestMCMCSampleSizeConsistentWithBound(t *testing.T) {
	// Plugging Eq.14's T back into the bound (ignoring the 3/T slack the
	// paper drops) should give approximately delta.
	eps, delta, mu := 0.02, 0.05, 3.0
	T := MCMCSampleSize(eps, delta, mu)
	got := MCMCBound(T, eps, mu)
	// The 3/T term makes the evaluated bound slightly larger than delta.
	if got < delta*0.8 || got > delta*2 {
		t.Fatalf("bound at Eq.14 T: got %v want ≈ %v", got, delta)
	}
}

func TestRKSampleSize(t *testing.T) {
	n := RKSampleSize(0.05, 0.1, 10)
	if n <= 0 {
		t.Fatalf("RK size %d", n)
	}
	// Larger diameter → at least as many samples.
	if RKSampleSize(0.05, 0.1, 100) < n {
		t.Fatal("RK size should grow with diameter")
	}
	// VD below 2 is clamped, not panicking.
	if RKSampleSize(0.05, 0.1, 1) <= 0 {
		t.Fatal("clamped diameter failed")
	}
}

func TestESSBatchMeans(t *testing.T) {
	// Strongly autocorrelated chain: long runs of the same value.
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = float64((i / 128) % 2)
	}
	ess := ESSBatchMeans(xs)
	if ess > 200 {
		t.Fatalf("sticky chain ESS too high: %v", ess)
	}
	// Alternating chain has negative autocorrelation → high ESS.
	alt := make([]float64, 1024)
	for i := range alt {
		alt[i] = float64(i % 2)
	}
	if ESSBatchMeans(alt) < 500 {
		t.Fatalf("alternating chain ESS too low: %v", ESSBatchMeans(alt))
	}
	if ESSBatchMeans([]float64{1, 2}) != 2 {
		t.Fatal("short series should return its length")
	}
}

func TestEmpiricalCoverage(t *testing.T) {
	errs := []float64{0.005, -0.02, 0.03, -0.001}
	if got := EmpiricalCoverage(errs, 0.01); got != 0.5 {
		t.Fatalf("coverage %v", got)
	}
	if EmpiricalCoverage(nil, 0.01) != 0 {
		t.Fatal("empty coverage should be 0")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{0, 1.9, 2, 5, 9.9, -3, 42} {
		h.Add(v)
	}
	if h.Total() != 7 {
		t.Fatalf("total %d", h.Total())
	}
	// -3 clamps to bin 0, 42 clamps to bin 4.
	if h.Counts[0] != 3 { // 0, 1.9, -3
		t.Fatalf("bin0 %d", h.Counts[0])
	}
	if h.Counts[4] != 2 { // 9.9, 42
		t.Fatalf("bin4 %d", h.Counts[4])
	}
	if !almostEq(h.Fraction(0), 3.0/7.0, 1e-12) {
		t.Fatalf("fraction %v", h.Fraction(0))
	}
	if h.String() == "" {
		t.Fatal("empty render")
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad histogram args did not panic")
		}
	}()
	NewHistogram(5, 5, 3)
}

func TestQuantileProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q0, q5, q1 := Quantile(xs, 0), Quantile(xs, 0.5), Quantile(xs, 1)
		return q0 <= q5 && q5 <= q1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	for i := 0; i < b.N; i++ {
		w.Add(float64(i % 97))
	}
}

func BenchmarkKendallTau64(b *testing.B) {
	x := make([]float64, 64)
	y := make([]float64, 64)
	for i := range x {
		x[i] = float64(i * i % 101)
		y[i] = float64(i * 7 % 101)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KendallTau(x, y)
	}
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Min returns the smallest observation (0 when empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 when empty).
func (w *Welford) Max() float64 { return w.max }

// Merge combines another accumulator into w (parallel variant of
// Welford's update, Chan et al.).
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// MaxAbsError returns the maximum of |est[i]-truth[i]|.
func MaxAbsError(est, truth []float64) float64 {
	if len(est) != len(truth) {
		panic("stats: MaxAbsError length mismatch")
	}
	var m float64
	for i := range est {
		if d := math.Abs(est[i] - truth[i]); d > m {
			m = d
		}
	}
	return m
}

// RMSE returns the root-mean-square error between est and truth.
func RMSE(est, truth []float64) float64 {
	if len(est) != len(truth) {
		panic("stats: RMSE length mismatch")
	}
	if len(est) == 0 {
		return 0
	}
	var s float64
	for i := range est {
		d := est[i] - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(est)))
}

// HoeffdingBound returns the Hoeffding tail bound 2 exp(-2 n eps²) for
// the mean of n iid samples of a [0,1]-valued variable.
func HoeffdingBound(n int, eps float64) float64 {
	return 2 * math.Exp(-2*float64(n)*eps*eps)
}

// RKSampleSize returns the Riondato–Kornaropoulos [30] sample size for
// estimating all betweenness values within eps with probability 1-delta:
//
//	r >= (c/eps²) (floor(log2(VD-2)) + 1 + ln(1/delta))
//
// where VD is the vertex diameter (number of vertices on the longest
// shortest path) and c is the universal VC constant, 0.5 in their
// implementation.
func RKSampleSize(eps, delta float64, vertexDiameter int) int {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		panic("stats: RKSampleSize requires eps > 0 and delta in (0,1)")
	}
	vd := vertexDiameter
	if vd < 2 {
		vd = 2
	}
	var ld float64
	if vd > 2 {
		ld = math.Floor(math.Log2(float64(vd - 2)))
	}
	const c = 0.5
	return int(math.Ceil(c / (eps * eps) * (ld + 1 + math.Log(1/delta))))
}
