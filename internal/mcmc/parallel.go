package mcmc

import (
	"context"
	"fmt"
	"math"
	"sync"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
	"bcmh/internal/sssp"
)

// MultiResult aggregates independent chains run in parallel.
type MultiResult struct {
	// Combined pools every chain's states into one estimate per
	// estimator kind (equal weights: all chains run the same number of
	// steps).
	Combined Result
	// PerChain holds each chain's own Result, in chain order (results
	// are deterministic given the seed regardless of scheduling).
	PerChain []Result
	// BetweenChainStdDev is the standard deviation of the per-chain
	// primary estimates — a cheap convergence diagnostic (large values
	// mean chains disagree and T is too small).
	BetweenChainStdDev float64
}

// EstimateBCParallel runs `chains` independent single-space samplers
// with split RNG streams and pools them. Pooling chain averages of
// equal-length chains is again a chain average, so every guarantee
// stated for one chain of T steps applies to the pooled estimator with
// T' = chains·T steps (the chains are independent, which only helps).
// Deterministic given (seed, chains, cfg): chain i always consumes the
// stream seed.Split("chain-i").
func EstimateBCParallel(g *graph.Graph, r int, cfg Config, seed uint64, chains int) (MultiResult, error) {
	return EstimateBCParallelPooled(g, r, cfg, seed, chains, nil)
}

// EstimateBCParallelPooled is EstimateBCParallel with per-chain
// traversal buffers drawn from pool (nil allocates per chain). The
// estimates are bit-identical to the unpooled variant: buffer reuse
// changes where scratch memory lives, never what the chain computes.
func EstimateBCParallelPooled(g *graph.Graph, r int, cfg Config, seed uint64, chains int, pool *BufferPool) (MultiResult, error) {
	return EstimateBCParallelPooledContext(context.Background(), g, r, cfg, seed, chains, pool)
}

// EstimateBCParallelPooledContext is EstimateBCParallelPooled under a
// context: every chain's step loop polls ctx (see
// EstimateBCPooledContext), so one cancellation aborts all chains
// promptly instead of letting each run to its full step budget. A run
// that completes is bit-identical to the context-free variant.
func EstimateBCParallelPooledContext(ctx context.Context, g *graph.Graph, r int, cfg Config, seed uint64, chains int, pool *BufferPool) (MultiResult, error) {
	if chains <= 0 {
		return MultiResult{}, fmt.Errorf("mcmc: chains must be positive, got %d", chains)
	}
	n := g.N()
	if n < 2 {
		return MultiResult{}, fmt.Errorf("mcmc: graph too small (n=%d)", n)
	}
	if err := cfg.validate(n); err != nil {
		return MultiResult{}, err
	}
	if r < 0 || r >= n {
		return MultiResult{}, fmt.Errorf("mcmc: oracle target %d out of range", r)
	}
	// Target-side state is chain-independent and read-only: compute the
	// snapshot and the proposal table once, share them with every chain
	// (a parked μ column too, when this run takes one).
	var ts targetState
	if pool != nil {
		ts = pool.chainTarget(g, r)
	} else {
		switch routeFor(g) {
		case routeBFSIdentity:
			ts.spd = sssp.NewTargetSPD(sssp.NewBFS(g), r)
		case routeDijkstraIdentity:
			ts.wspd = sssp.NewWeightedTargetSPD(sssp.NewDijkstra(g), r)
		}
	}
	var degAlias *rng.Alias
	if cfg.DegreeProposal {
		if pool != nil {
			degAlias = pool.degreeAlias(g)
		} else {
			degAlias = degreeAliasFor(g)
		}
	}
	results := make([]Result, chains)
	errs := make([]error, chains)
	var wg sync.WaitGroup
	root := rng.New(seed)
	for i := 0; i < chains; i++ {
		// Split in loop order so streams don't depend on scheduling.
		chainRNG := root.Split(fmt.Sprintf("chain-%d", i))
		wg.Add(1)
		go func(i int, chainRNG *rng.RNG) {
			defer wg.Done()
			// Each chain gets its own buffers and oracle: traversal
			// kernels are not concurrency-safe, and separate memos keep
			// work accounting honest.
			var b *chainBuffers
			if pool != nil {
				b = pool.get(g)
				defer pool.put(b)
			} else {
				b = newChainBuffers(g)
			}
			oracle, err := newOracleBuffered(g, r, !cfg.DisableCache, b, ts, pool)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := runSingleChain(ctx, g, oracle, cfg, chainRNG, b, degAlias)
			if err != nil {
				errs[i] = err
				return
			}
			res.Evals = oracle.Evals
			res.CacheHits = oracle.Hits
			results[i] = res
		}(i, chainRNG)
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
// equal-length chains is again a chain average). Shared by the BC and
// measure-generic parallel drivers.
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

// EstimateStatParallelPooledContext is the measure-generic analogue of
// EstimateBCParallelPooledContext: `chains` independent chains over
// per-chain statistic oracles built by newOracle (called once per
// chain, from that chain's goroutine — evaluation kernels are not
// concurrency-safe, so each chain needs its own; expensive per-target
// state should be computed once outside and shared by the closures).
// Chain i consumes the stream seed.Split("chain-i"), exactly like the
// BC driver, so a measure run is reproducible the same way. Under the
// adaptive stopping rule chains monitor their own streams and may stop
// at different step counts; Combined.StepsRun totals the actual work.
func EstimateStatParallelPooledContext(ctx context.Context, g *graph.Graph, newOracle func() (StatOracle, error), cfg Config, seed uint64, chains int, pool *BufferPool) (MultiResult, error) {
	if chains <= 0 {
		return MultiResult{}, fmt.Errorf("mcmc: chains must be positive, got %d", chains)
	}
	n := g.N()
	if n < 2 {
		return MultiResult{}, fmt.Errorf("mcmc: graph too small (n=%d)", n)
	}
	if err := cfg.validate(n); err != nil {
		return MultiResult{}, err
	}
	var degAlias *rng.Alias
	if cfg.DegreeProposal {
		if pool != nil {
			degAlias = pool.degreeAlias(g)
		} else {
			degAlias = degreeAliasFor(g)
		}
	}
	results := make([]Result, chains)
	errs := make([]error, chains)
	var wg sync.WaitGroup
	root := rng.New(seed)
	for i := 0; i < chains; i++ {
		chainRNG := root.Split(fmt.Sprintf("chain-%d", i))
		wg.Add(1)
		go func(i int, chainRNG *rng.RNG) {
			defer wg.Done()
			var b *chainBuffers
			if pool != nil {
				b = pool.get(g)
				defer pool.put(b)
			} else {
				b = newChainBuffers(g)
			}
			oracle, err := newOracle()
			if err != nil {
				errs[i] = err
				return
			}
			res, err := runSingleChain(ctx, g, oracle, cfg, chainRNG, b, degAlias)
			if err != nil {
				errs[i] = err
				return
			}
			res.Evals, res.CacheHits = oracle.Work()
			results[i] = res
		}(i, chainRNG)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return MultiResult{}, err
		}
	}
	return combineChainResults(results, cfg), nil
}
