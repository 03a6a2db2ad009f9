package mcmc

import (
	"context"
	"fmt"
	"math"

	"bcmh/internal/brandes"
	"bcmh/internal/graph"
	"bcmh/internal/stats"
)

// MuStats holds the exact concentration profile of the dependency
// column δ_·•(r) that Theorems 1 and 2 reason about.
type MuStats struct {
	// Mu is μ(r) = max_v δ_v•(r) / δ̄(r), the minorisation parameter of
	// Theorem 1 (Inequality 11, taken at its tightest value).
	Mu float64
	// MaxDep and MeanDep are max_v δ_v•(r) and δ̄(r) = Σδ/n.
	MaxDep, MeanDep float64
	// SumDep = Σ_v δ_v•(r) = n(n-1)·BC(r).
	SumDep float64
	// BC is the exact betweenness of r (Eq. 1 normalisation).
	BC float64
	// PositiveStates is n⁺ = |{v : δ_v•(r) > 0}|.
	PositiveStates int
	// ChainLimit is what the chain average actually converges to:
	// E_π[f] = Σ δ² / ((n-1)·Σ δ) under the stationary distribution
	// π ∝ δ, not BC(r); it equals BC exactly when δ is constant on its
	// support covering all of V.
	ChainLimit float64
	// Bias = ChainLimit − BC, the estimator's asymptotic bias.
	Bias float64
}

// MuFromDeps computes MuStats from an exact dependency column (length
// n, e.g. from brandes.DependencyVector).
func MuFromDeps(deps []float64) MuStats {
	n := len(deps)
	var s MuStats
	if n < 2 {
		return s
	}
	var sum, sumSq float64
	for _, d := range deps {
		if d > s.MaxDep {
			s.MaxDep = d
		}
		if d > 0 {
			s.PositiveStates++
		}
		sum += d
		sumSq += d * d
	}
	s.SumDep = sum
	s.MeanDep = sum / float64(n)
	s.BC = sum / (float64(n) * float64(n-1))
	if s.MeanDep > 0 {
		s.Mu = s.MaxDep / s.MeanDep
	}
	if sum > 0 {
		s.ChainLimit = sumSq / (float64(n-1) * sum)
	}
	s.Bias = s.ChainLimit - s.BC
	return s
}

// MuExact computes MuStats for vertex r by exact O(nm) dependency
// evaluation — ground truth for experiments T3/T4/T10.
func MuExact(g *graph.Graph, r int) (MuStats, error) {
	return MuExactPooledContext(context.Background(), g, r, nil)
}

// MuExactPooledContext is MuExact sharing pool's per-target
// shortest-path snapshot cache: the target-side BFS the dependency
// column needs is the same one the chains' fast oracle reads, so a μ
// computation warms the cache for every subsequent estimation of the
// same vertex (and vice versa). The column itself is parked in the
// same cache entry for the next chain run on the target to take (see
// BufferPool), so the chain a μ was derived for reads its dependencies
// instead of re-traversing. A nil pool computes standalone; a directed
// graph is an error. The O(nm) column computation polls ctx
// between source traversals and aborts with ctx's error, so a
// lifecycle-scoped μ derivation (e.g. one owned by an evicted serving
// session) stops within one traversal per worker.
func MuExactPooledContext(ctx context.Context, g *graph.Graph, r int, pool *BufferPool) (MuStats, error) {
	if r < 0 || r >= g.N() {
		return MuStats{}, fmt.Errorf("mcmc: MuExact target %d out of range", r)
	}
	if g.Directed() {
		return MuStats{}, errDirected("MuExact")
	}
	var ent *tspdEntry
	if pool != nil {
		ent = pool.target(g, r)
	}
	var deps []float64
	var err error
	switch {
	case ent == nil:
		deps, err = brandes.DependencyVectorParallelContext(ctx, g, r, 0)
	case ent.spd != nil:
		deps, err = brandes.DependencyVectorWithTargetContext(ctx, g, ent.spd, 0)
	default:
		deps, err = brandes.DependencyVectorWithWeightedTargetContext(ctx, g, ent.wspd, 0)
	}
	if err != nil {
		return MuStats{}, err
	}
	for v, d := range deps {
		if nonFinite(d) {
			return MuStats{}, fmt.Errorf("mcmc: dependency at vertex %d is %v: %w", v, d, ErrNonFinite)
		}
	}
	if ent != nil {
		ent.col.Store(&deps)
	}
	return MuFromDeps(deps), nil
}

// PlanSteps returns the chain length prescribed by Eq. 14 (and Eq. 27)
// for an (ε,δ)-guarantee given μ(r): T ≥ μ²/(2ε²)·ln(2/δ).
func PlanSteps(eps, delta, mu float64) int {
	return stats.MCMCSampleSize(eps, delta, mu)
}

// TheoremOneBound evaluates the right-hand side of Inequality 12 for a
// chain of T steps: the paper's tail-probability guarantee that
// experiment F2 compares against empirical coverage.
func TheoremOneBound(T int, eps, mu float64) float64 {
	return stats.MCMCBound(T, eps, mu)
}

// RelGroundTruth holds the exact quantities the joint-space estimates
// converge to, for a target set R (all matrices indexed by position in
// R; entry [i][j] relates R[i] to R[j]).
type RelGroundTruth struct {
	R []int
	// BC[i] is the exact betweenness of R[i].
	BC []float64
	// Ratio[i][j] = BC(ri)/BC(rj) (NaN if BC(rj) = 0).
	Ratio [][]float64
	// Eq23[i][j] is the paper's relative betweenness score as defined:
	// (1/n) Σ_v min{1, δ_v(ri)/δ_v(rj)} with ratio01 conventions.
	Eq23 [][]float64
	// WeightedLimit[i][j] = Σ_v min(δ_v(ri), δ_v(rj)) / Σ_v δ_v(rj):
	// the value the M(j) chain average actually converges to (the
	// Bennett numerator, weighted by the stationary π ∝ δ(rj) rather
	// than uniform as in Eq. 23). Its [i][j]/[j][i] ratio is
	// exactly Ratio[i][j].
	WeightedLimit [][]float64
	// Mu[j] is μ(rj), governing Eq. 27's per-target sample size.
	Mu []float64
}

// ExactRelative computes RelGroundTruth by exact dependency columns:
// |R| × n traversals.
func ExactRelative(g *graph.Graph, R []int) (RelGroundTruth, error) {
	n := g.N()
	k := len(R)
	if k < 2 {
		return RelGroundTruth{}, fmt.Errorf("mcmc: ExactRelative needs >= 2 targets")
	}
	deps := make([][]float64, k) // deps[i][v] = δ_v•(R[i])
	gt := RelGroundTruth{
		R:             append([]int(nil), R...),
		BC:            make([]float64, k),
		Ratio:         make([][]float64, k),
		Eq23:          make([][]float64, k),
		WeightedLimit: make([][]float64, k),
		Mu:            make([]float64, k),
	}
	for i, r := range R {
		if r < 0 || r >= n {
			return RelGroundTruth{}, fmt.Errorf("mcmc: ExactRelative target %d out of range", r)
		}
		deps[i] = brandes.DependencyVector(g, r)
		ms := MuFromDeps(deps[i])
		gt.BC[i] = ms.BC
		gt.Mu[i] = ms.Mu
	}
	for i := 0; i < k; i++ {
		gt.Ratio[i] = make([]float64, k)
		gt.Eq23[i] = make([]float64, k)
		gt.WeightedLimit[i] = make([]float64, k)
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			var sumMin, sumJ, eq23 float64
			for v := 0; v < n; v++ {
				di, dj := deps[i][v], deps[j][v]
				if di < dj {
					sumMin += di
				} else {
					sumMin += dj
				}
				sumJ += dj
				eq23 += ratio01(di, dj)
			}
			gt.Eq23[i][j] = eq23 / float64(n)
			if sumJ > 0 {
				gt.WeightedLimit[i][j] = sumMin / sumJ
			}
			if gt.BC[j] > 0 {
				gt.Ratio[i][j] = gt.BC[i] / gt.BC[j]
			} else {
				gt.Ratio[i][j] = math.NaN()
			}
		}
	}
	return gt, nil
}
