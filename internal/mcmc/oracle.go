// Package mcmc implements the paper's contribution: the single-space
// Metropolis–Hastings sampler for estimating the betweenness score of
// one vertex (§4.2) and the joint-space sampler for estimating relative
// betweenness scores of a vertex set (§4.3), together with the μ(r)
// machinery of Theorems 1–2, the Eq. 14/27 sample-size planner, and
// exact ground-truth helpers used by the experiments.
//
// Run is the one entry point of the single-space chain: it runs one
// chain, or several independent chains pooled into one estimate, of a
// Source — BC(r) for betweenness, SourceRows.BC(r) for betweenness
// chains that share one table of shortest-path rows (a rank job's), or
// Stat(newOracle) for any other per-vertex statistic (the measures of
// internal/measure, and the stress chain here).
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
// Both undirected kinds take a pair-dependency identity route (the
// identity needs σ_vr = σ_rv, i.e. symmetry); only directed graphs
// fall back to the reference Brandes evaluator.
type oracleRoute int

const (
	// routeBrandes: directed graphs — full traversal plus backward
	// accumulation per evaluation (brandes.DependencyOnTarget).
	routeBrandes oracleRoute = iota
	// routeBFSIdentity: unweighted undirected graphs — specialized BFS
	// kernel plus O(n) scan (brandes.DependencyOnTargetIdentity).
	routeBFSIdentity
	// routeDijkstraIdentity: weighted undirected graphs — specialized
	// Dijkstra kernel (bucket queue when the weight range allows, 4-ary
	// heap otherwise) plus O(n) scan
	// (brandes.DependencyOnTargetIdentityWeighted).
	routeDijkstraIdentity
)

// routeFor selects the evaluation route for g.
func routeFor(g *graph.Graph) oracleRoute {
	switch {
	case g.Directed():
		return routeBrandes
	case g.Weighted():
		return routeDijkstraIdentity
	default:
		return routeBFSIdentity
	}
}

// Oracle evaluates δ_v•(target), the betweenness chain's StatOracle.
// It keeps no memo: the chain loop memoises every value it reads (see
// runSingleChain), so each Dep call is one evaluation.
//
// Three evaluation routes sit behind the same interface, selected by
// the graph (see routeFor):
//
//   - BFS identity route (unweighted undirected): the target-side
//     shortest path snapshot is computed once per oracle — or shared
//     through the BufferPool's per-target cache — and each evaluation
//     is one specialized forward BFS from v plus an O(n) scan, via
//     brandes.DependencyOnTargetIdentity. No Brandes backward pass.
//   - Dijkstra identity route (weighted undirected): same shape with
//     the weighted kernel and snapshot, via
//     brandes.DependencyOnTargetIdentityWeighted.
//   - Brandes route (directed): each evaluation is a full traversal
//     plus backward accumulation, via the reference
//     brandes.DependencyOnTarget.
//
// An oracle of the chain run that took a μ derivation's parked column
// (see BufferPool) reads δ_v•(target) from that column instead: the
// column was filled by the same identity kernels, so every value, and
// the chain's Evals/CacheHits accounting, is what a traversal would
// have produced. An oracle of a run through a SourceRows table
// (SourceRows.BC, the table rank jobs share per snapshot) takes its
// target side from the target's row and answers an evaluation at v by
// scanning v's row against it
// (brandes.DependencyOnTargetRow[Weighted]), traversing only to build
// a row no chain has built yet: the same values, bit for bit, at one
// traversal per vertex per table. A vertex without a row (its
// traversal does not pack, or the row budget is spent) takes the
// identity route above.
type Oracle struct {
	target int

	// Brandes route state.
	c     *sssp.Computer
	delta []float64
	// BFS identity route state.
	bfs  *sssp.BFS
	tspd *sssp.TargetSPD
	// Dijkstra identity route state.
	dij   *sssp.Dijkstra
	wtspd *sssp.WeightedTargetSPD
	// col, when non-nil, is the exact column δ_·•(target) parked by a μ
	// derivation; evaluations read it instead of traversing.
	col []float64
	// rows, when non-nil, is the table of source rows the run shares:
	// evaluations scan v's row (built on this oracle's kernel if no
	// chain has yet) instead of traversing. rowEvals counts the
	// evaluations a row served.
	rows     *SourceRows
	rowEvals int
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
	o := &Oracle{
		target: target,
		c:      b.c,
		delta:  b.delta,
		bfs:    b.bfs,
		dij:    b.dij,
		col:    ts.col,
	}
	if o.col != nil && pool != nil {
		pool.columnChains.Add(1)
	}
	tspd, wtspd := ts.spd, ts.wspd
	if ts.rows != nil {
		// In an undirected graph the target's row is its target side; a
		// target without a row takes the snapshot below.
		o.rows = ts.rows
		if row, _ := o.rows.row(target, o.bfs, o.dij); row != nil {
			if o.bfs != nil {
				tspd = row.Target(&b.tbuf)
			} else {
				wtspd = row.WeightedTarget(&b.wtbuf)
			}
		}
	}
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
// column, from v's row in the run's table, or by a traversal from v
// and a scan (skipping the traversal when building v's row has just
// run it and the row did not pack).
func (o *Oracle) Dep(v int) float64 {
	if o.col != nil {
		return o.col[v]
	}
	ran := false
	if o.rows != nil {
		var row *sssp.Row
		if row, ran = o.rows.row(v, o.bfs, o.dij); row != nil {
			o.rowEvals++
			if o.bfs != nil {
				return brandes.DependencyOnTargetRow(row, o.tspd)
			}
			return brandes.DependencyOnTargetRowWeighted(row, o.wtspd)
		}
	}
	switch {
	case o.bfs != nil:
		if !ran {
			o.bfs.Run(v)
		}
		return brandes.DependencyOnTargetIdentity(o.bfs, o.tspd, v)
	case o.dij != nil:
		if !ran {
			o.dij.Run(v)
		}
		return brandes.DependencyOnTargetIdentityWeighted(o.dij, o.wtspd, v)
	default:
		return brandes.DependencyOnTarget(o.c, o.delta, v, o.target)
	}
}

// SetOracle evaluates the vector (δ_v•(r))_{r ∈ R} for a fixed set R.
// On the Brandes route a single traversal from v yields δ_v•(x) for
// every x, so the whole R-vector costs the same O(m) as a single entry;
// on the identity routes one specialized BFS/Dijkstra from v feeds |R|
// O(n) scans against the per-target snapshots (one cached SPD per
// target in R, computed once at construction). Either way the
// joint-space sampler's per-step cost stays effectively independent of
// |R|.
type SetOracle struct {
	g       *graph.Graph
	targets []int

	// Brandes route state.
	c     *sssp.Computer
	delta []float64
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
// non-empty, in range, and duplicate-free).
func NewSetOracle(g *graph.Graph, targets []int, useCache bool) (*SetOracle, error) {
	o := &SetOracle{g: g}
	switch routeFor(g) {
	case routeBFSIdentity:
		o.bfs = sssp.NewBFS(g)
	case routeDijkstraIdentity:
		o.dij = sssp.NewDijkstra(g)
	default:
		o.c = sssp.NewComputer(g)
		o.delta = make([]float64, g.N())
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
	switch {
	case o.bfs != nil:
		o.tspds = o.tspds[:0]
		for _, r := range o.targets {
			o.tspds = append(o.tspds, sssp.NewTargetSPD(o.bfs, r))
		}
	case o.dij != nil:
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
	switch {
	case o.bfs != nil:
		o.bfs.Run(v)
		for i, ts := range o.tspds {
			out[i] = brandes.DependencyOnTargetIdentity(o.bfs, ts, v)
		}
	case o.dij != nil:
		o.dij.Run(v)
		for i, ts := range o.wtspds {
			out[i] = brandes.DependencyOnTargetIdentityWeighted(o.dij, ts, v)
		}
	default:
		spd := o.c.Run(v)
		brandes.Accumulate(o.g, spd, o.delta)
		for i, r := range o.targets {
			out[i] = o.delta[r]
		}
	}
	if o.memoStamp != nil {
		o.memoStamp[v] = o.memoEpoch
	}
	return out
}
