package brandes

import (
	"context"
	"math"
	"runtime"
	"sync"

	"bcmh/internal/graph"
	"bcmh/internal/sssp"
)

// Identity-based dependency evaluation — the fast oracle behind the MH
// hot path. For an undirected graph and a fixed target r, the
// pair-dependency identity
//
//	δ_v•(r) = Σ_{t ≠ v,r} [d(v,r)+d(r,t) = d(v,t)] · σ_vr·σ_rt / σ_vt
//
// turns one dependency query into a single forward traversal from v
// plus an O(n) scan against the shortest-path data rooted at r — no
// Brandes backward accumulation, no per-edge shortest-path-membership
// checks. Since r is fixed for an entire MH chain, its side of the
// identity (sssp.TargetSPD / sssp.WeightedTargetSPD) is computed once
// and read on every step. Unweighted graphs use the BFS kernel with
// exact integer distance tests; weighted graphs use the Dijkstra
// kernel with the shared sssp.WeightEps relative tolerance, the same
// rule the reference traversal classifies ties with.
//
// DependencyOnTarget in brandes.go remains the reference evaluator: it
// is the route directed graphs take, and the baseline the equivalence
// tests (internal/mcmc) hold both identity paths to.

// DependencyOnTargetIdentity returns δ_v•(ts.Target) evaluated via the
// pair-dependency identity. vb must already hold the traversal from v
// (vb.Run(v) was the last run); ts is the cached target-side snapshot.
// The graph must be undirected and unweighted — the identity reads
// σ_vr and d(v,r) from v's traversal, which equal σ_rv and d(r,v) only
// under symmetry. Callers (internal/mcmc's oracle selection) enforce
// this; the function itself only assumes it.
func DependencyOnTargetIdentity(vb *sssp.BFS, ts *sssp.TargetSPD, v int) float64 {
	r := ts.Target
	if v == r || !vb.Reached(r) {
		// δ_r•(r) = 0 by definition; an unreachable target lies on no
		// path from v at all.
		return 0
	}
	dvr := vb.DistOf(r)
	svr := vb.SigmaOf(r)
	var sum float64
	if ord := vb.Ordering(); ord != nil {
		// Tag-compare fast path for relabeled kernels: the three per-t
		// tests (reached, distance identity, t ≠ r) collapse to one
		// uint64 compare — tag[Perm[t]] == epoch<<32 | (dvr+drt) holds
		// exactly when t was reached this run at distance dvr+drt, and
		// no stale tag can alias a current-epoch value (epochs only
		// grow between the wrap's full clears). Iteration and
		// accumulation stay in external index order, so the sum is
		// bit-identical to the reference scan below for any kernel
		// layout — only the per-t reads gather through the permutation.
		tag, sigma, ep := vb.Raw()
		base := uint64(ep)<<32 + uint64(uint32(dvr))
		for t, drt := range ts.Dist {
			if drt < 0 || t == r {
				continue
			}
			if s := ord.Perm[t]; tag[s] == base+uint64(uint32(drt)) {
				sum += svr * ts.Sigma[t] / sigma[s]
			}
		}
		return sum
	}
	// Sequential scan over all t: every array is read in index order
	// (the prefetcher's best case), with unreached t filtered by their
	// stale epoch tag. t == v never passes the distance test (dvr ≥ 1,
	// drt ≥ 0 versus dist(v,v) = 0); t == r always passes it (drt = 0)
	// and is excluded explicitly.
	for t, drt := range ts.Dist {
		if drt >= 0 && vb.Reached(t) && dvr+drt == vb.DistOf(t) && t != r {
			sum += svr * ts.Sigma[t] / vb.SigmaOf(t)
		}
	}
	return sum
}

// DependencyOnTargetRow returns δ_v•(ts.Target) for v = row.Source,
// reading v's side of the identity from its retained row instead of a
// live traversal. The scan is DependencyOnTargetIdentity's — the same
// exact distance test, the same t order, the same arithmetic on the
// same float64 values (a row decodes losslessly) — so the result is
// bit-identical to running the kernel from v. row must come from
// sssp.NewRow on the graph ts was built on.
func DependencyOnTargetRow(row *sssp.Row, ts *sssp.TargetSPD) float64 {
	v, r := row.Source, ts.Target
	packed := row.Packed[:len(ts.Dist)]
	dr, sr := sssp.RowEntry(packed[r])
	if v == r || sr == 0 {
		return 0
	}
	dvr, svr := int32(dr), float64(sr)
	var sum float64
	for t, drt := range ts.Dist {
		if d, s := sssp.RowEntry(packed[t]); drt >= 0 && s != 0 && dvr+drt == int32(d) && t != r {
			sum += svr * ts.Sigma[t] / float64(s)
		}
	}
	return sum
}

// dependencyColumnIdentityContext fills out[v] = δ_v•(ts.Target) for
// v = from, from+stride, … < to, running one BFS per source on vb: the
// identity-path equivalent of DependencyOnTarget calls sharing one
// target snapshot. It polls ctx before every source traversal (each is
// a full BFS, so the check is free by comparison); on cancellation it
// stops with ctx's error and out left partially filled.
func dependencyColumnIdentityContext(ctx context.Context, vb *sssp.BFS, ts *sssp.TargetSPD, out []float64, from, to, stride int) error {
	for v := from; v < to; v += stride {
		if err := ctx.Err(); err != nil {
			return err
		}
		vb.Run(v)
		out[v] = DependencyOnTargetIdentity(vb, ts, v)
	}
	return nil
}

// DependencyVectorWithTargetContext is the identity-route dependency
// column δ_·•(ts.Target) against a caller-supplied target snapshot,
// fanned over workers goroutines (0 = GOMAXPROCS). g must be
// undirected and unweighted. Every worker polls ctx between source
// traversals, so a cancelled O(nm) column computation stops within one
// BFS per worker instead of running to completion. On cancellation the
// returned slice is nil and the error is ctx's.
func DependencyVectorWithTargetContext(ctx context.Context, g *graph.Graph, ts *sssp.TargetSPD, workers int) ([]float64, error) {
	n := g.N()
	out := make([]float64, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if err := dependencyColumnIdentityContext(ctx, sssp.NewBFS(g), ts, out, 0, n, 1); err != nil {
			return nil, err
		}
		return out, nil
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = dependencyColumnIdentityContext(ctx, sssp.NewBFS(g), ts, out, w, n, workers) // disjoint writes
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DependencyOnTargetIdentityWeighted returns δ_v•(ts.Target) evaluated
// via the pair-dependency identity on a weighted undirected graph. vd
// must already hold the traversal from v (vd.Run(v) was the last run);
// ts is the cached target-side snapshot. The distance test uses the
// shared sssp.WeightEps relative tolerance, so an edge tie classified
// as shortest by the reference traversal is classified identically
// here. As with the unweighted variant, the graph must be undirected:
// the identity reads σ_vr and d(v,r) from v's traversal, which equal
// σ_rv and d(r,v) only under symmetry.
func DependencyOnTargetIdentityWeighted(vd *sssp.Dijkstra, ts *sssp.WeightedTargetSPD, v int) float64 {
	r := ts.Target
	if v == r || !vd.Reached(r) {
		// δ_r•(r) = 0 by definition; an unreachable target lies on no
		// path from v at all.
		return 0
	}
	dvr := vd.DistOf(r)
	svr := vd.SigmaOf(r)
	var sum float64
	// Sequential scan over all t, arrays read in index order. t == v
	// never passes the distance test (dvr ≥ the minimum edge weight,
	// drt ≥ 0 versus dist(v,v) = 0, far outside the tolerance); t == r
	// always passes it (drt = 0) and is excluded explicitly.
	for t, drt := range ts.Dist {
		if drt < 0 || t == r || !vd.Reached(t) {
			continue
		}
		dvt := vd.DistOf(t)
		if math.Abs(dvr+drt-dvt) <= sssp.WeightEps*(1+math.Abs(dvt)) {
			sum += svr * ts.Sigma[t] / vd.SigmaOf(t)
		}
	}
	return sum
}

// DependencyOnTargetRowWeighted is DependencyOnTargetRow on a weighted
// undirected graph: δ_v•(ts.Target) for v = row.Source, with
// DependencyOnTargetIdentityWeighted's WeightEps distance test and t
// order over v's retained row, bit-identical to running the kernel
// from v. row must come from sssp.NewWeightedRow on the graph ts was
// built on.
func DependencyOnTargetRowWeighted(row *sssp.Row, ts *sssp.WeightedTargetSPD) float64 {
	v, r := row.Source, ts.Target
	packed := row.Packed[:len(ts.Dist)]
	dr, sr := sssp.RowEntry(packed[r])
	if v == r || sr == 0 {
		return 0
	}
	dvr, svr := float64(dr), float64(sr)
	var sum float64
	for t, drt := range ts.Dist {
		d, s := sssp.RowEntry(packed[t])
		if drt < 0 || t == r || s == 0 {
			continue
		}
		if dvt := float64(d); math.Abs(dvr+drt-dvt) <= sssp.WeightEps*(1+math.Abs(dvt)) {
			sum += svr * ts.Sigma[t] / float64(s)
		}
	}
	return sum
}

// dependencyColumnIdentityWeightedContext is
// dependencyColumnIdentityContext on a weighted undirected graph: one
// Dijkstra run per source on vd. It polls ctx before every source
// traversal; on cancellation it stops with ctx's error and out left
// partially filled.
func dependencyColumnIdentityWeightedContext(ctx context.Context, vd *sssp.Dijkstra, ts *sssp.WeightedTargetSPD, out []float64, from, to, stride int) error {
	for v := from; v < to; v += stride {
		if err := ctx.Err(); err != nil {
			return err
		}
		vd.Run(v)
		out[v] = DependencyOnTargetIdentityWeighted(vd, ts, v)
	}
	return nil
}

// DependencyVectorWithWeightedTargetContext is the weighted
// identity-route dependency column: DependencyVectorWithTargetContext
// for weighted undirected graphs. Every worker polls ctx between
// source traversals, so a cancelled column computation stops within
// one Dijkstra per worker. On cancellation the returned slice is nil
// and the error is ctx's.
func DependencyVectorWithWeightedTargetContext(ctx context.Context, g *graph.Graph, ts *sssp.WeightedTargetSPD, workers int) ([]float64, error) {
	n := g.N()
	out := make([]float64, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if err := dependencyColumnIdentityWeightedContext(ctx, sssp.NewDijkstra(g), ts, out, 0, n, 1); err != nil {
			return nil, err
		}
		return out, nil
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = dependencyColumnIdentityWeightedContext(ctx, sssp.NewDijkstra(g), ts, out, w, n, workers) // disjoint writes
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
