package sampler

import (
	"fmt"
	"math"

	"bcmh/internal/brandes"
	"bcmh/internal/graph"
	"bcmh/internal/rng"
	"bcmh/internal/sssp"
	"bcmh/internal/stats"
)

// Adaptive is a progressive uniform source sampler with an empirical
// Bernstein stopping rule, in the spirit of ABRA (Riondato & Upfal
// [31]): rather than fixing the sample size a priori from a worst-case
// bound, it draws until the data itself certifies the target accuracy.
// Each sample is a uniform source's dependency statistic
// f(s) = δ_s•(r)/(n−1) ∈ [0,1]; after t samples the empirical
// Bernstein deviation bound
//
//	rad(t) = sqrt(2·V̂_t·ln(3/δ_t)/t) + 3·ln(3/δ_t)/t
//
// with δ_t = δ/(t(t+1)) (union bound over stopping times) guarantees
// P[|mean − BC(r)| > rad(t)] ≤ δ simultaneously for every t, so
// stopping at the first t with rad(t) ≤ ε yields an (ε,δ)-estimate.
// Low-variance targets stop far earlier than the Hoeffding-planned
// budget — the adaptivity ABRA [31] and KADABRA [7] made standard.
type Adaptive struct {
	g      *graph.Graph
	c      *sssp.Computer
	delta  []float64
	target int
}

// NewAdaptive returns an adaptive sampler for BC(target).
func NewAdaptive(g *graph.Graph, target int) (*Adaptive, error) {
	if target < 0 || target >= g.N() {
		return nil, fmt.Errorf("sampler: target %d out of range", target)
	}
	return &Adaptive{
		g:      g,
		c:      sssp.NewComputer(g),
		delta:  make([]float64, g.N()),
		target: target,
	}, nil
}

// AdaptiveResult reports the estimate and how much work certification
// took.
type AdaptiveResult struct {
	// Estimate is the sample mean at stopping time.
	Estimate float64
	// Samples is the number of traversals drawn.
	Samples int
	// Radius is the certified deviation bound at stopping time
	// (≤ eps unless MaxSamples hit first).
	Radius float64
	// Certified reports whether the eps target was met before
	// MaxSamples.
	Certified bool
}

// Run draws until the empirical Bernstein radius is ≤ eps (with
// confidence 1−delta) or maxSamples is reached. minSamples guards the
// early noisy regime (default 16 when ≤ 0).
func (a *Adaptive) Run(eps, delta float64, minSamples, maxSamples int, r *rng.RNG) (AdaptiveResult, error) {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		return AdaptiveResult{}, fmt.Errorf("sampler: Run requires eps > 0 and delta in (0,1)")
	}
	if maxSamples <= 0 {
		return AdaptiveResult{}, fmt.Errorf("sampler: Run requires positive maxSamples")
	}
	if minSamples <= 0 {
		minSamples = 16
	}
	n := a.g.N()
	var acc stats.Welford
	var res AdaptiveResult
	for t := 1; t <= maxSamples; t++ {
		s := r.Intn(n)
		f := brandes.DependencyOnTarget(a.c, a.delta, s, a.target) / float64(n-1)
		acc.Add(f)
		if t < minSamples {
			continue
		}
		deltaT := delta / (float64(t) * float64(t+1))
		logTerm := math.Log(3 / deltaT)
		rad := math.Sqrt(2*acc.PopVariance()*logTerm/float64(t)) + 3*logTerm/float64(t)
		if rad <= eps {
			res.Estimate = acc.Mean()
			res.Samples = t
			res.Radius = rad
			res.Certified = true
			return res, nil
		}
	}
	deltaT := delta / (float64(maxSamples) * float64(maxSamples+1))
	logTerm := math.Log(3 / deltaT)
	res.Estimate = acc.Mean()
	res.Samples = maxSamples
	res.Radius = math.Sqrt(2*acc.PopVariance()*logTerm/float64(maxSamples)) + 3*logTerm/float64(maxSamples)
	res.Certified = res.Radius <= eps
	return res, nil
}
