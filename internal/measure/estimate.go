package measure

import (
	"context"
	"fmt"

	"bcmh/internal/core"
	"bcmh/internal/graph"
	"bcmh/internal/mcmc"
)

// EstimatePrepared estimates spec's centrality of vertex r with the
// single-space MH sampler: the entry point the serving engine
// dispatches every estimate through. g is already valid for estimation
// (connected, undirected), μ is the caller's cached Stats(…).Mu when
// the plan needs one (ignored for fixed Steps and under opts.Adaptive),
// and pool supplies chain buffers. Planning, seeding and the estimators
// are core.PlanAndRun's; the chains sample Source(spec, r), so the bc
// spec runs exactly what core.EstimateBCPreparedContext runs.
func EstimatePrepared(ctx context.Context, g *graph.Graph, spec Spec, r int, opts core.Options, mu float64, pool *mcmc.BufferPool) (core.Estimate, error) {
	if err := spec.Supports(g); err != nil {
		return core.Estimate{}, err
	}
	if r < 0 || r >= g.N() {
		return core.Estimate{}, fmt.Errorf("measure: vertex %d out of range [0,%d)", r, g.N())
	}
	return core.PlanAndRun(ctx, g, opts, mu, pool, func() (mcmc.Source, error) {
		return Source(ctx, g, spec, r, pool)
	})
}

// Source returns what a chain estimating spec at r samples: mcmc.BC(r)
// for the zero spec, otherwise one Evaluator per chain over a Target
// built here once and shared by every chain that runs the source (for
// rwbc, building it is the deg(r) Laplacian solves).
func Source(ctx context.Context, g *graph.Graph, spec Spec, r int, pool *mcmc.BufferPool) (mcmc.Source, error) {
	if spec.IsBC() {
		return mcmc.BC(r), nil
	}
	t, err := NewTarget(ctx, g, spec, r, pool)
	if err != nil {
		return mcmc.Source{}, err
	}
	return mcmc.Stat(func() (mcmc.StatOracle, error) {
		return NewEvaluator(g, t)
	}), nil
}

// Estimate is the standalone front door: it validates, derives μ with
// Stats when the plan needs one, and estimates. For bc on a graph
// core.EstimateBCContext accepts, it returns what that returns. Callers
// with a μ-cache — the engine — use EstimatePrepared directly.
func Estimate(ctx context.Context, g *graph.Graph, spec Spec, r int, opts core.Options, pool *mcmc.BufferPool) (core.Estimate, error) {
	if err := spec.Validate(); err != nil {
		return core.Estimate{}, err
	}
	if err := opts.Validate(); err != nil {
		return core.Estimate{}, err
	}
	if err := spec.Supports(g); err != nil {
		return core.Estimate{}, err
	}
	if !graph.IsConnected(g) {
		return core.Estimate{}, fmt.Errorf("measure: graph is not connected; call core.Prepare to extract the largest component")
	}
	o := opts.Normalized()
	mu := o.MuBound
	if !o.Adaptive && o.Steps <= 0 && mu <= 0 {
		ms, err := Stats(ctx, g, spec, r, pool)
		if err != nil {
			return core.Estimate{}, err
		}
		mu = ms.Mu
	}
	return EstimatePrepared(ctx, g, spec, r, o, mu, pool)
}
