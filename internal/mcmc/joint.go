package mcmc

import (
	"fmt"
	"math"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
)

// JointConfig parameterises the joint-space sampler of §4.3.
type JointConfig struct {
	// Steps is T, the number of MH iterations over the joint space
	// R × V(G); the chain visits T+1 states.
	Steps int
	// BurnIn discards this many leading chain states (paper: none
	// needed; ablation only).
	BurnIn int
	// DisableCache turns off dependency memoisation.
	DisableCache bool
	// InitR / InitV fix the initial state; -1 draws uniformly.
	InitR, InitV int
}

// DefaultJointConfig returns the paper-faithful configuration.
func DefaultJointConfig(steps int) JointConfig {
	return JointConfig{Steps: steps, InitR: -1, InitV: -1}
}

// JointResult carries the joint-space sampler's estimates.
//
// Index convention: everything is indexed by position in R as passed to
// EstimateRelative; RelScore[i][j] estimates the relative betweenness
// score of R[i] with respect to R[j].
type JointResult struct {
	R []int
	// MSize[j] = |M(j)|: chain states whose r-component is R[j]
	// (after burn-in, repeats included, as in Eq. 22).
	MSize []int
	// RelScore[i][j] = (1/|M(j)|) Σ_{s∈M(j)} min{1, δ_{s.v}(ri)/δ_{s.v}(rj)}
	// — the numerator of Eq. 22, the paper's estimate of BC_{rj}(ri)
	// (Eq. 23). NaN when M(j) is empty.
	RelScore [][]float64
	// RatioEst[i][j] = RelScore[i][j]/RelScore[j][i]: Eq. 22's estimate
	// of BC(ri)/BC(rj). NaN when undefined.
	RatioEst [][]float64
	// AcceptanceRate is accepted transitions / Steps.
	AcceptanceRate float64
	// UniqueStates counts distinct v-components visited.
	UniqueStates int
	// Evals / CacheHits: SetOracle work accounting.
	Evals     int
	CacheHits int
}

// ratio01 is min{1, x/y} with the zero conventions used throughout
// (acceptMH's): y = 0 saturates to 1 (including 0/0, so a chain stuck
// on a zero-mass state contributes symmetrically), x = 0, y > 0 gives
// 0.
func ratio01(x, y float64) float64 {
	if y == 0 {
		return 1
	}
	if x >= y {
		return 1
	}
	return x / y
}

// EstimateRelative runs the joint-space Metropolis–Hastings sampler of
// §4.3 on states ⟨r, v⟩ ∈ R × V(G): both components are re-proposed
// uniformly each step and the move is accepted with probability
// min{1, δ_{v'}•(r')/δ_v•(r)} (Eq. 17), giving stationary distribution
// P[r,v] ∝ δ_v•(r) (Eq. 18). The per-r sub-chains then estimate
// relative betweenness scores (Eq. 22/23) and, via the Bennett-identity
// Theorem 3, betweenness ratios.
func EstimateRelative(g *graph.Graph, R []int, cfg JointConfig, rnd *rng.RNG) (JointResult, error) {
	n := g.N()
	k := len(R)
	if n < 2 {
		return JointResult{}, fmt.Errorf("mcmc: graph too small (n=%d)", n)
	}
	if k < 2 {
		return JointResult{}, fmt.Errorf("mcmc: target set needs >= 2 vertices, got %d", k)
	}
	if cfg.Steps <= 0 {
		return JointResult{}, fmt.Errorf("mcmc: Steps must be positive, got %d", cfg.Steps)
	}
	if cfg.BurnIn < 0 || cfg.BurnIn > cfg.Steps {
		return JointResult{}, fmt.Errorf("mcmc: BurnIn %d out of [0, Steps=%d]", cfg.BurnIn, cfg.Steps)
	}
	if cfg.InitR >= k || cfg.InitV >= n {
		return JointResult{}, fmt.Errorf("mcmc: initial state (%d,%d) out of range", cfg.InitR, cfg.InitV)
	}
	oracle, err := NewSetOracle(g, R, !cfg.DisableCache)
	if err != nil {
		return JointResult{}, err
	}

	res := JointResult{
		R:        append([]int(nil), R...),
		MSize:    make([]int, k),
		RelScore: make([][]float64, k),
		RatioEst: make([][]float64, k),
	}
	sums := make([][]float64, k) // sums[j][i] accumulates min-ratios over M(j)
	for i := 0; i < k; i++ {
		res.RelScore[i] = make([]float64, k)
		res.RatioEst[i] = make([]float64, k)
		sums[i] = make([]float64, k)
	}

	curR := cfg.InitR
	if curR < 0 {
		curR = rnd.Intn(k)
	}
	curV := cfg.InitV
	if curV < 0 {
		curV = rnd.Intn(n)
	}
	depsCur := oracle.Deps(curV)
	visited := map[int]bool{curV: true}

	// countState folds chain state (curR, curV) into M(curR)'s sums.
	countState := func(stateIdx int) {
		if stateIdx < cfg.BurnIn {
			return
		}
		j := curR
		dj := depsCur[j]
		res.MSize[j]++
		for i := 0; i < k; i++ {
			sums[j][i] += ratio01(depsCur[i], dj)
		}
	}
	countState(0)

	accepted := 0
	for t := 1; t <= cfg.Steps; t++ {
		propR := rnd.Intn(k)
		propV := rnd.Intn(n)
		depsNew := oracle.Deps(propV)
		if acceptMH(depsCur[curR], depsNew[propR], 1, rnd) {
			curR, curV = propR, propV
			depsCur = depsNew
			accepted++
			visited[curV] = true
		}
		countState(t)
	}

	for j := 0; j < k; j++ {
		for i := 0; i < k; i++ {
			if res.MSize[j] > 0 {
				res.RelScore[i][j] = sums[j][i] / float64(res.MSize[j])
			} else {
				res.RelScore[i][j] = math.NaN()
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			denom := res.RelScore[j][i]
			if res.MSize[i] == 0 || res.MSize[j] == 0 || denom == 0 {
				res.RatioEst[i][j] = math.NaN()
				continue
			}
			res.RatioEst[i][j] = res.RelScore[i][j] / denom
		}
	}
	res.AcceptanceRate = float64(accepted) / float64(cfg.Steps)
	res.UniqueStates = len(visited)
	res.Evals = oracle.Evals
	res.CacheHits = oracle.Hits
	return res, nil
}
