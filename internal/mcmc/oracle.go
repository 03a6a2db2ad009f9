// Package mcmc implements the paper's contribution: the single-space
// Metropolis–Hastings sampler for estimating the betweenness score of
// one vertex (§4.2) and the joint-space sampler for estimating relative
// betweenness scores of a vertex set (§4.3), together with the μ(r)
// machinery of Theorems 1–2, the Eq. 14/27 sample-size planner, and
// exact ground-truth helpers used by the experiments.
//
// Run is the one entry point of the single-space chain: it runs one
// chain, or several independent chains pooled into one estimate, of a
// Source — BC(r) for betweenness, or Stat(newOracle) for any other
// per-vertex statistic (the measures of internal/measure, and the
// stress chain here). Every chain, μ derivation and set oracle of the
// package needs an undirected graph: its dependency evaluations use
// the pair-dependency identity, which holds only under symmetry.
//
// Estimator variants: beyond the paper's Eq. 7 the package computes, on
// the same chain, the standard MH chain average, the proposal-side
// unbiased estimate (free by-product of the acceptance tests), and a
// harmonic-mean corrected estimate that is consistent for BC(r) even
// when the chain-average limit is biased: the chain average converges
// to MuStats.ChainLimit = Σδ²/((n−1)Σδ), not to BC(r). Every run
// reports all of them so the experiments can compare.
package mcmc

import (
	"fmt"

	"bcmh/internal/brandes"
	"bcmh/internal/graph"
	"bcmh/internal/sssp"
)

// oracleRoute names the dependency-evaluation strategy a graph gets.
// Both are pair-dependency identity routes, which need σ_vr = σ_rv:
// the graph must be undirected (see errDirected).
type oracleRoute int

const (
	// routeBFSIdentity: unweighted graphs — specialized BFS kernel plus
	// O(n) scan (brandes.DependencyOnTargetIdentity).
	routeBFSIdentity oracleRoute = iota
	// routeDijkstraIdentity: weighted graphs — specialized Dijkstra
	// kernel (bucket queue when the weight range allows, 4-ary heap
	// otherwise) plus O(n) scan
	// (brandes.DependencyOnTargetIdentityWeighted).
	routeDijkstraIdentity
)

// routeFor selects the evaluation route for the undirected graph g.
func routeFor(g *graph.Graph) oracleRoute {
	if g.Weighted() {
		return routeDijkstraIdentity
	}
	return routeBFSIdentity
}

// errDirected is what every entry point answers a directed graph with:
// routeFor would send one down an identity route, which needs symmetry.
func errDirected(what string) error {
	return fmt.Errorf("mcmc: %s requires an undirected graph", what)
}

// Oracle evaluates δ_v•(target), the betweenness chain's StatOracle.
// It keeps no memo: the chain loop memoises every value it reads (see
// runSingleChain), so each Dep call is one evaluation.
//
// Two evaluation routes sit behind the same interface, selected by the
// graph (see routeFor):
//
//   - BFS identity route (unweighted): the target-side shortest path
//     snapshot is computed once per oracle — or shared through the
//     BufferPool's per-target cache — and each evaluation is one
//     specialized forward BFS from v plus an O(n) scan, via
//     brandes.DependencyOnTargetIdentity. No Brandes backward pass.
//   - Dijkstra identity route (weighted): same shape with the weighted
//     kernel and snapshot, via brandes.DependencyOnTargetIdentityWeighted.
//
// An oracle of the chain run that took a μ derivation's parked column
// (see BufferPool) reads δ_v•(target) from that column instead: the
// column was filled by the same identity kernels, so every value, and
// the chain's Evals/CacheHits accounting, is what a traversal would
// have produced.
type Oracle struct {
	// BFS identity route state.
	bfs  *sssp.BFS
	tspd *sssp.TargetSPD
	// Dijkstra identity route state.
	dij   *sssp.Dijkstra
	wtspd *sssp.WeightedTargetSPD
	// col, when non-nil, is the exact column δ_·•(target) parked by a μ
	// derivation; evaluations read it instead of traversing.
	col []float64
}

// newOracleBuffered wires an Oracle around the kernels of recycled
// chain buffers. A non-nil ts.spd/ts.wspd supplies the target-side
// snapshot for the matching identity route (from the BufferPool's
// shared cache); nil makes the oracle compute its own. A non-nil ts.col
// is a parked μ column the oracle answers from (counted in pool's
// ColumnChains when pool is non-nil).
func newOracleBuffered(g *graph.Graph, target int, b *chainBuffers, ts targetState, pool *BufferPool) (*Oracle, error) {
	if target < 0 || target >= g.N() {
		return nil, fmt.Errorf("mcmc: oracle target %d out of range", target)
	}
	o := &Oracle{bfs: b.bfs, dij: b.dij, col: ts.col}
	if o.col != nil && pool != nil {
		pool.columnChains.Add(1)
	}
	tspd, wtspd := ts.spd, ts.wspd
	if o.bfs != nil {
		if tspd == nil || tspd.Target != target {
			tspd = sssp.NewTargetSPD(o.bfs, target)
		}
		o.tspd = tspd
	}
	if o.dij != nil {
		if wtspd == nil || wtspd.Target != target {
			wtspd = sssp.NewWeightedTargetSPD(o.dij, target)
		}
		o.wtspd = wtspd
	}
	return o, nil
}

// Dep returns δ_v•(target) on the oracle's route: from a parked
// column, or by a traversal from v and a scan.
func (o *Oracle) Dep(v int) float64 {
	switch {
	case o.col != nil:
		return o.col[v]
	case o.bfs != nil:
		o.bfs.Run(v)
		return brandes.DependencyOnTargetIdentity(o.bfs, o.tspd, v)
	default:
		o.dij.Run(v)
		return brandes.DependencyOnTargetIdentityWeighted(o.dij, o.wtspd, v)
	}
}

// SetOracle evaluates the vector (δ_v•(r))_{r ∈ R} for a fixed set R:
// one specialized BFS/Dijkstra from v feeds |R| O(n) scans against the
// per-target snapshots (one cached SPD per target in R, computed once
// at construction), so the joint-space sampler's per-step cost is one
// traversal plus |R| scans.
type SetOracle struct {
	g       *graph.Graph
	targets []int

	// BFS identity route state: one snapshot per target in R.
	bfs   *sssp.BFS
	tspds []*sssp.TargetSPD
	// Dijkstra identity route state, same shape.
	dij    *sssp.Dijkstra
	wtspds []*sssp.WeightedTargetSPD

	// Dense memo, flattened row-major: row v is
	// memoVal[v*len(targets) : (v+1)*len(targets)], valid iff
	// memoStamp[v] == memoEpoch — the same epoch tagging the
	// single-space chain's memo uses, so Retarget invalidates every row in O(1) instead of trusting a
	// binary stamp that would survive a target-set change and serve
	// stale vectors. Nil memoStamp disables memoisation.
	memoVal   []float64
	memoStamp []uint32
	memoEpoch uint32

	Evals int
	Hits  int
}

// NewSetOracle returns an oracle for the target set R (which must be
// non-empty, in range, and duplicate-free) on the undirected graph g.
func NewSetOracle(g *graph.Graph, targets []int, useCache bool) (*SetOracle, error) {
	if g.Directed() {
		return nil, errDirected("set oracle")
	}
	o := &SetOracle{g: g}
	if routeFor(g) == routeBFSIdentity {
		o.bfs = sssp.NewBFS(g)
	} else {
		o.dij = sssp.NewDijkstra(g)
	}
	if useCache {
		o.memoStamp = make([]uint32, g.N())
	}
	if err := o.Retarget(targets); err != nil {
		return nil, err
	}
	return o, nil
}

// Retarget repoints the oracle at a new target set, rebuilding the
// per-target snapshots and invalidating the whole memo by bumping its
// epoch. It is the reuse path for callers that run several joint-space
// estimations on one graph: buffers, kernels and the memo backing array
// are all recycled.
func (o *SetOracle) Retarget(targets []int) error {
	if len(targets) == 0 {
		return fmt.Errorf("mcmc: empty target set")
	}
	seen := make(map[int]bool, len(targets))
	for _, r := range targets {
		if r < 0 || r >= o.g.N() {
			return fmt.Errorf("mcmc: set oracle target %d out of range", r)
		}
		if seen[r] {
			return fmt.Errorf("mcmc: set oracle target %d repeated", r)
		}
		seen[r] = true
	}
	o.targets = append(o.targets[:0], targets...)
	if o.bfs != nil {
		o.tspds = o.tspds[:0]
		for _, r := range o.targets {
			o.tspds = append(o.tspds, sssp.NewTargetSPD(o.bfs, r))
		}
	} else {
		o.wtspds = o.wtspds[:0]
		for _, r := range o.targets {
			o.wtspds = append(o.wtspds, sssp.NewWeightedTargetSPD(o.dij, r))
		}
	}
	if o.memoStamp != nil {
		if need := o.g.N() * len(o.targets); cap(o.memoVal) < need {
			o.memoVal = make([]float64, need)
		} else {
			o.memoVal = o.memoVal[:need]
		}
		o.memoEpoch = bumpEpoch(o.memoStamp, o.memoEpoch)
	}
	return nil
}

// Deps returns the dependency vector of source v on every target,
// indexed as the targets slice passed to NewSetOracle/Retarget. The
// returned slice is owned by the memo when caching is on; callers must
// not modify it (each source has its own row, so slices returned for
// different sources stay valid across calls — until the next Retarget).
func (o *SetOracle) Deps(v int) []float64 {
	k := len(o.targets)
	if o.memoStamp != nil && o.memoStamp[v] == o.memoEpoch {
		o.Hits++
		return o.memoVal[v*k : (v+1)*k : (v+1)*k]
	}
	o.Evals++
	var out []float64
	if o.memoStamp != nil {
		out = o.memoVal[v*k : (v+1)*k : (v+1)*k]
	} else {
		out = make([]float64, k)
	}
	if o.bfs != nil {
		o.bfs.Run(v)
		for i, ts := range o.tspds {
			out[i] = brandes.DependencyOnTargetIdentity(o.bfs, ts, v)
		}
	} else {
		o.dij.Run(v)
		for i, ts := range o.wtspds {
			out[i] = brandes.DependencyOnTargetIdentityWeighted(o.dij, ts, v)
		}
	}
	if o.memoStamp != nil {
		o.memoStamp[v] = o.memoEpoch
	}
	return out
}
