package mcmc

import (
	"context"
	"fmt"
	"math"
	"sync"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
)

// MultiResult is what Run reports.
type MultiResult struct {
	// Combined pools every chain's states into one estimate per
	// estimator kind (equal weights: all chains run the same number of
	// steps). For a single chain it is that chain's Result.
	Combined Result
	// PerChain holds each chain's own Result, in chain order (results
	// are deterministic given the seed regardless of scheduling); nil
	// for a single chain.
	PerChain []Result
	// BetweenChainStdDev is the standard deviation of the per-chain
	// primary estimates — a cheap convergence diagnostic (large values
	// mean chains disagree and T is too small).
	BetweenChainStdDev float64
}

// Source names what a run's chains sample: the per-vertex statistic
// whose column the chain's stationary distribution is proportional to.
// Build one with BC or Stat.
type Source struct {
	target    int                        // BC target (when newOracle is nil)
	newOracle func() (StatOracle, error) // Stat: one oracle per chain
}

// BC is the betweenness source of §4.2: every chain samples δ_v•(r)
// through the graph's identity oracle on buffers drawn from the run's
// pool, and the run's chains share one target-side snapshot from the
// pool's cache (and the μ column parked there, when this run takes
// one).
func BC(r int) Source { return Source{target: r} }

// Stat samples an arbitrary statistic oracle: newOracle is called once
// per chain, on that chain's goroutine (evaluation kernels are not
// concurrency-safe, so each chain needs its own oracle; expensive
// per-target state should be built once by the caller and shared by
// the closure). The chain loop memoises the oracle's values as it does
// betweenness's. The estimators read d/(n−1) exactly as for
// betweenness, so a statistic that shares betweenness's normalisation
// (Σ_v d_v = n(n−1)·Value) reuses the whole estimator stack.
func Stat(newOracle func() (StatOracle, error)) Source {
	return Source{newOracle: newOracle}
}

// Run runs `chains` independent single-space Metropolis–Hastings
// samplers (§4.2) of src on the connected undirected graph g (a
// directed one is an error). Proposals are
// uniform (Eq. 6) or degree-weighted (Hastings-corrected); the move
// v→v' is accepted with probability min{1, d_{v'}/d_v}, so the
// stationary distribution is ∝ d (Eq. 5, the optimal sampling
// distribution of [13] for betweenness).
//
// One chain runs on the caller's goroutine with the stream
// rng.New(seed), and Combined is its own Result, traces included
// (PerChain stays nil). With more chains, chain i runs on its own
// goroutine with the stream rng.New(seed).Split("chain-i") and
// combineChainResults pools them: pooling chain averages of
// equal-length chains is again a chain average, so every guarantee
// stated for one chain of T steps applies to the pool with T' =
// chains·T steps. Results, Evals and CacheHits included, are
// deterministic given (g, src, cfg, seed, chains), whatever the
// scheduling.
//
// Chains draw their buffers from pool, and a nil pool means a private
// NewBufferPool(g) for the run; buffer reuse changes where scratch
// memory lives, never what a chain computes or counts. Every chain's
// step loop polls ctx, so one cancellation aborts the run with ctx's
// error; a run that completes is bit-identical whatever the context.
func Run(ctx context.Context, g *graph.Graph, src Source, cfg Config, seed uint64, chains int, pool *BufferPool) (MultiResult, error) {
	if chains <= 0 {
		return MultiResult{}, fmt.Errorf("mcmc: chains must be positive, got %d", chains)
	}
	n := g.N()
	if n < 2 {
		return MultiResult{}, fmt.Errorf("mcmc: graph too small (n=%d)", n)
	}
	if g.Directed() {
		return MultiResult{}, errDirected("a chain")
	}
	if err := cfg.validate(n); err != nil {
		return MultiResult{}, err
	}
	if pool == nil {
		pool = NewBufferPool(g)
	}
	newOracle := src.newOracle
	var ts targetState
	if newOracle == nil {
		r := src.target
		if r < 0 || r >= n {
			// Checked before the pool lookup: building (and caching) a
			// target snapshot for an invalid vertex would panic mid-BFS.
			return MultiResult{}, fmt.Errorf("mcmc: oracle target %d out of range", r)
		}
		// Target-side state is chain-independent and read-only: one
		// lookup per run, shared by every chain.
		ts = pool.chainTarget(g, r)
	}
	var degAlias *rng.Alias
	if cfg.DegreeProposal {
		degAlias = pool.degreeAlias(g)
	}
	chain := func(rnd *rng.RNG) (Result, error) {
		b := pool.get(g)
		defer pool.put(b)
		var oracle StatOracle
		var err error
		if newOracle != nil {
			oracle, err = newOracle()
		} else {
			oracle, err = newOracleBuffered(g, src.target, b, ts, pool)
		}
		if err != nil {
			return Result{}, err
		}
		return runSingleChain(ctx, g, oracle, cfg, rnd, b, degAlias)
	}
	if chains == 1 {
		res, err := chain(rng.New(seed))
		if err != nil {
			return MultiResult{}, err
		}
		return MultiResult{Combined: res}, nil
	}
	results := make([]Result, chains)
	errs := make([]error, chains)
	var wg sync.WaitGroup
	root := rng.New(seed)
	for i := 0; i < chains; i++ {
		// Split in loop order so streams don't depend on scheduling.
		chainRNG := root.Split(fmt.Sprintf("chain-%d", i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = chain(chainRNG)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return MultiResult{}, err
		}
	}
	return combineChainResults(results, cfg), nil
}

// combineChainResults pools per-chain results with equal weights (all
// chains get the same step budget; pooling chain averages of
// equal-length chains is again a chain average). Under the adaptive
// stopping rule chains monitor their own streams and may stop at
// different step counts; Combined.StepsRun totals the actual work.
func combineChainResults(results []Result, cfg Config) MultiResult {
	chains := len(results)
	var m MultiResult
	m.PerChain = results
	// Pool: equal-length chains → simple means; work sums; max of maxes.
	var sumVar float64
	var meanEst float64
	m.Combined.Converged = chains > 0
	for _, r := range results {
		m.Combined.ChainAverage += r.ChainAverage
		m.Combined.PaperEq7 += r.PaperEq7
		m.Combined.ProposalSide += r.ProposalSide
		m.Combined.Harmonic += r.Harmonic
		m.Combined.AcceptanceRate += r.AcceptanceRate
		m.Combined.MeanDepProposal += r.MeanDepProposal
		m.Combined.Evals += r.Evals
		m.Combined.CacheHits += r.CacheHits
		m.Combined.UniqueStates += r.UniqueStates // upper bound (chains may overlap)
		m.Combined.StepsRun += r.StepsRun         // total work across chains
		m.Combined.Converged = m.Combined.Converged && r.Converged
		if r.EBHalfWidth > m.Combined.EBHalfWidth {
			m.Combined.EBHalfWidth = r.EBHalfWidth // most pessimistic chain
		}
		if r.MaxDepSeen > m.Combined.MaxDepSeen {
			m.Combined.MaxDepSeen = r.MaxDepSeen
		}
		meanEst += r.Estimate
	}
	k := float64(chains)
	m.Combined.ChainAverage /= k
	m.Combined.PaperEq7 /= k
	m.Combined.ProposalSide /= k
	m.Combined.Harmonic /= k
	m.Combined.AcceptanceRate /= k
	m.Combined.MeanDepProposal /= k
	meanEst /= k
	for _, r := range results {
		d := r.Estimate - meanEst
		sumVar += d * d
	}
	if chains > 1 {
		m.BetweenChainStdDev = math.Sqrt(sumVar / float64(chains-1))
	}
	switch cfg.Estimator {
	case EstimatorChainAverage:
		m.Combined.Estimate = m.Combined.ChainAverage
	case EstimatorPaperEq7:
		m.Combined.Estimate = m.Combined.PaperEq7
	case EstimatorProposalSide:
		m.Combined.Estimate = m.Combined.ProposalSide
	case EstimatorHarmonic:
		m.Combined.Estimate = m.Combined.Harmonic
	}
	return m
}
