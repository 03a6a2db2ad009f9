package measure

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"bcmh/internal/graph"
	"bcmh/internal/mcmc"
)

// ExactColumn computes the exact statistic column d_·(r) of spec —
// the measure-generic analogue of brandes.DependencyVector, and the
// input to μ derivation and ground-truth cross-checks. BC is rejected
// (its exact column lives in internal/brandes). Coverage/kpath cost
// one BFS per vertex and are striped across GOMAXPROCS workers, each
// polling ctx per traversal; rwbc's column is O(deg(r)·n) table reads
// after the Target's solves, done inline.
func ExactColumn(ctx context.Context, g *graph.Graph, spec Spec, r int, pool *mcmc.BufferPool) ([]float64, error) {
	if spec.IsBC() {
		return nil, fmt.Errorf("measure: exact bc columns are served by internal/brandes, not measure.ExactColumn")
	}
	t, err := NewTarget(ctx, g, spec, r, pool)
	if err != nil {
		return nil, err
	}
	n := g.N()
	deps := make([]float64, n)
	if spec.Kind == RWBC {
		for v := 0; v < n; v++ {
			deps[v] = t.flow.dep(v)
		}
		return deps, nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ev, err := NewEvaluator(g, t)
			if err != nil {
				errs[w] = err
				return
			}
			for v := w; v < n; v += workers {
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				deps[v] = ev.Dep(v)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return deps, nil
}

// Stats computes the exact concentration profile of spec at r — μ,
// max/mean statistic, the exact value (MuStats.BC holds it under the
// shared Σd/(n(n−1)) normalisation regardless of measure), positive
// support, and the chain-average limit. BC routes to the existing
// pooled μ derivation (warming the pool's snapshot cache exactly as
// before); other measures go through ExactColumn. This is what the
// engine's μ-cache stores per (measure, vertex). A column with a NaN
// or ±Inf entry is an error wrapping mcmc.ErrNonFinite.
func Stats(ctx context.Context, g *graph.Graph, spec Spec, r int, pool *mcmc.BufferPool) (mcmc.MuStats, error) {
	if spec.IsBC() {
		return mcmc.MuExactPooledContext(ctx, g, r, pool)
	}
	deps, err := ExactColumn(ctx, g, spec, r, pool)
	if err != nil {
		return mcmc.MuStats{}, err
	}
	for v, d := range deps {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return mcmc.MuStats{}, fmt.Errorf("measure: %s value at vertex %d is %v: %w", spec.Kind, v, d, mcmc.ErrNonFinite)
		}
	}
	return mcmc.MuFromDeps(deps), nil
}
