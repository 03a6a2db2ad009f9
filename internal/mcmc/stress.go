package mcmc

import (
	"context"
	"fmt"

	"bcmh/internal/brandes"
	"bcmh/internal/graph"
	"bcmh/internal/sssp"
)

// Stress-index estimation — the paper's conclusion proposes that the
// MH technique generalises to other shortest-path indices; this file
// realises that for stress centrality. The chain is identical in shape
// to §4.2's (uniform proposals, acceptance min{1, δS_{v'}/δS_v}), with
// stationary distribution ∝ the stress dependency column, and the same
// estimator menu applies with stress scaling: Stress(r) = Σ_v δS_v(r).

// StressResult carries the stress-chain estimates, all targeting the
// raw ordered-pair count Stress(r).
type StressResult struct {
	// ProposalSide is the unbiased estimate n·mean(δS over uniform
	// proposals).
	ProposalSide float64
	// Harmonic is the corrected chain-based estimate
	// n⁺-hat / mean_π(1/δS).
	Harmonic float64
	// ChainWeightedMean is the raw chain average of δS, which converges
	// to the δS-weighted mean Σδ²/Σδ — reported for the same bias
	// analysis as the betweenness chain (it does NOT estimate
	// Stress(r)).
	ChainWeightedMean float64
	// AcceptanceRate and work accounting, as in Result.
	AcceptanceRate float64
	UniqueStates   int
	Evals          int
	CacheHits      int
}

// stressOracle evaluates δS_v•(target); it is the Stat source of the
// stress chain.
type stressOracle struct {
	c      *sssp.Computer
	delta  []float64
	target int
}

// Dep returns δS_v•(target).
func (o *stressOracle) Dep(v int) float64 {
	return brandes.StressDependencyOnTarget(o.c, o.delta, v, o.target)
}

// EstimateStress runs one single-space MH chain of the given length
// targeting P[v] ∝ δS_v•(r), seeded like Run, and returns stress
// estimates for vertex r. The chain reads f = δS/(n−1), so the
// estimates are Run's, rescaled to raw pair counts.
func EstimateStress(g *graph.Graph, r int, steps int, seed uint64) (StressResult, error) {
	n := g.N()
	if r < 0 || r >= n {
		return StressResult{}, fmt.Errorf("mcmc: stress target %d out of range", r)
	}
	src := Stat(func() (StatOracle, error) {
		return &stressOracle{
			c:      sssp.NewComputer(g),
			delta:  make([]float64, n),
			target: r,
		}, nil
	})
	m, err := Run(context.Background(), g, src, DefaultConfig(steps), seed, 1, nil)
	if err != nil {
		return StressResult{}, err
	}
	res := m.Combined
	pairs := float64(n) * float64(n-1)
	return StressResult{
		ProposalSide:      res.ProposalSide * pairs,
		Harmonic:          res.Harmonic * pairs,
		ChainWeightedMean: res.ChainAverage * float64(n-1),
		AcceptanceRate:    res.AcceptanceRate,
		UniqueStates:      res.UniqueStates,
		Evals:             res.Evals,
		CacheHits:         res.CacheHits,
	}, nil
}
