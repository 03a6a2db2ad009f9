// Package mcmc implements the paper's contribution: the single-space
// Metropolis–Hastings sampler for estimating the betweenness score of
// one vertex (§4.2) and the joint-space sampler for estimating relative
// betweenness scores of a vertex set (§4.3), together with the μ(r)
// machinery of Theorems 1–2, the Eq. 14/27 sample-size planner, exact
// ground-truth helpers used by the experiments, and a multi-chain
// parallel driver.
//
// Estimator variants: beyond the paper's Eq. 7 the package computes, on
// the same chain, the standard MH chain average, the proposal-side
// unbiased estimate (free by-product of the acceptance tests), and a
// harmonic-mean corrected estimate that is consistent for BC(r) even
// when the chain-average limit is biased (see DESIGN.md §1.1). Every
// run reports all of them so the experiments can compare.
package mcmc

import (
	"fmt"
	"sync/atomic"

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

// Oracle evaluates δ_v•(target) with optional memoisation. MH chains
// revisit states whenever a proposal is rejected, so the memo converts
// the dominant cost from O(steps) to O(unique-states) evaluations.
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
// the Evals/Hits accounting, is what a traversal would have produced.
//
// The memo is a dense epoch-stamped array, not a map: at chain lengths
// in the thousands, map hashing on every step is measurable.
type Oracle struct {
	g      *graph.Graph
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
	// derivation; memo misses read it instead of traversing.
	col []float64

	// Dense memo: memoVal[v] is valid iff memoStamp[v] == memoEpoch —
	// and, when the memo was carried across graph versions, iff v's
	// block has not been affected since memoVersion (the lastAffected
	// check below). A nil memoStamp disables memoisation (ablation T8d).
	memoVal   []float64
	memoStamp []uint32
	memoEpoch uint32

	// Carry-over validity: entries older than this oracle were computed
	// at graph version memoVersion; lastAffected (shared with the pool,
	// read atomically — swaps write it concurrently) tells whether a
	// vertex's block was edited after that. Nil lastAffected means the
	// memo never crosses versions and the stamp alone decides.
	memoVersion  uint64
	lastAffected []uint64

	// Evals counts dependency evaluations performed (memo misses); Hits
	// counts memo hits. Work accounting for experiments T7/T8d.
	Evals int
	Hits  int
}

// NewOracle returns an oracle for δ_·•(target) on g, auto-selecting the
// evaluation route. When useCache is false every Dep call performs a
// full evaluation (ablation T8d).
func NewOracle(g *graph.Graph, target int, useCache bool) (*Oracle, error) {
	return newOracleBuffered(g, target, useCache, newChainBuffers(g), targetState{}, nil)
}

// newOracleBuffered wires an Oracle around recycled chain buffers. The
// buffers may have served a previous target; bumping the memo epoch
// invalidates every stale entry in O(1). A non-nil ts.spd/ts.wspd
// supplies the target-side snapshot for the matching identity route
// (from the BufferPool's shared cache); nil makes the oracle compute
// its own. A non-nil ts.col is a parked μ column the oracle answers
// memo misses from (counted in pool's ColumnChains).
//
// With a non-nil pool, the memo survives graph-version bumps when it is
// provably still exact: the buffers last served the same target, at a
// version at or before g's, and no swap since then affected the
// target's block (pool.lastAffected). δ_v(r) depends only on the blocks
// of the block-cut forest containing v and r — contributions from other
// blocks factor through the cut vertices and cancel in the identity
// formula — so entries at unaffected states stay valid; states whose
// block *was* edited are rejected individually by Dep's lastAffected
// check. Chains restarted on a new snapshot therefore keep their warm
// memos instead of re-evaluating every revisited state from scratch.
func newOracleBuffered(g *graph.Graph, target int, useCache bool, b *chainBuffers, ts targetState, pool *BufferPool) (*Oracle, error) {
	if target < 0 || target >= g.N() {
		return nil, fmt.Errorf("mcmc: oracle target %d out of range", target)
	}
	o := &Oracle{
		g:      g,
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
	if useCache {
		o.memoVal = b.memoVal
		o.memoStamp = b.memoStamp
		// Only a strictly newer snapshot triggers a carry: same-version
		// reuse keeps the old bump-per-oracle behavior so Evals/Hits
		// stay deterministic regardless of buffer recycling order.
		crossVersion := pool != nil && b.memoTarget == target && b.memoVersion < g.Version()
		if crossVersion && !pool.affectedAfter(target, b.memoVersion) {
			// Carry: keep the epoch (existing entries stay stamped) and
			// judge each entry per state against lastAffected in Dep.
			// memoVersion must stay at the fill version — advancing it
			// would blind the per-state check to edits in between.
			o.memoEpoch = b.memoEpoch
			o.memoVersion = b.memoVersion
			o.lastAffected = pool.lastAffected
			pool.carried.Add(1)
		} else {
			if crossVersion {
				pool.discarded.Add(1)
			}
			// Fresh memo: every entry will be computed on g itself, so
			// the stamp alone decides validity (lastAffected stays nil).
			o.memoEpoch = b.nextMemoEpoch()
			b.memoTarget = target
			b.memoVersion = g.Version()
			o.memoVersion = b.memoVersion
		}
	}
	return o, nil
}

// newReferenceOracle forces the Brandes route regardless of graph kind —
// the baseline the equivalence tests hold the identity route to.
func newReferenceOracle(g *graph.Graph, target int, useCache bool) (*Oracle, error) {
	if target < 0 || target >= g.N() {
		return nil, fmt.Errorf("mcmc: oracle target %d out of range", target)
	}
	o := &Oracle{
		g:      g,
		target: target,
		c:      sssp.NewComputer(g),
		delta:  make([]float64, g.N()),
	}
	if useCache {
		o.memoVal = make([]float64, g.N())
		o.memoStamp = make([]uint32, g.N())
		o.memoEpoch = 1
	}
	return o, nil
}

// Dep returns δ_v•(target).
func (o *Oracle) Dep(v int) float64 {
	if o.memoStamp != nil && o.memoStamp[v] == o.memoEpoch &&
		(o.lastAffected == nil || atomic.LoadUint64(&o.lastAffected[v]) <= o.memoVersion) {
		o.Hits++
		return o.memoVal[v]
	}
	o.Evals++
	var d float64
	switch {
	case o.col != nil:
		d = o.col[v]
	case o.bfs != nil:
		o.bfs.Run(v)
		d = brandes.DependencyOnTargetIdentity(o.bfs, o.tspd, v)
	case o.dij != nil:
		o.dij.Run(v)
		d = brandes.DependencyOnTargetIdentityWeighted(o.dij, o.wtspd, v)
	default:
		d = brandes.DependencyOnTarget(o.c, o.delta, v, o.target)
	}
	if o.memoStamp != nil {
		o.memoStamp[v] = o.memoEpoch
		o.memoVal[v] = d
	}
	return d
}

// Target returns the oracle's target vertex.
func (o *Oracle) Target() int { return o.target }

// Work reports (evaluations, memo hits) — the StatOracle accounting
// surface the measure-generic chain loop reads.
func (o *Oracle) Work() (evals, hits int) { return o.Evals, o.Hits }

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
	// memoStamp[v] == memoEpoch — the same epoch tagging Oracle uses,
	// so Retarget invalidates every row in O(1) instead of trusting a
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

// Targets returns the oracle's target set (not a copy; do not modify).
func (o *SetOracle) Targets() []int { return o.targets }

// CarryTo moves the oracle to next — another snapshot of the same
// undirected lineage — reseating its traversal kernel (O(overlay) for
// overlay siblings, full rebuild otherwise) and recomputing the
// per-target snapshots. affected is the vertex set of the blocks the
// intervening edits touched (nil = treat everything as affected).
//
// The memo survives when no target lies in an affected block: rows at
// affected states are invalidated individually and the rest stay valid
// — δ_v(r) only depends on the blocks between v and r, so entries with
// both endpoints outside the affected region are unchanged. If any
// target is affected the whole memo is dropped (one epoch bump).
func (o *SetOracle) CarryTo(next *graph.Graph, affected []bool) {
	switch {
	case o.bfs != nil:
		o.bfs.Reseat(next)
	case o.dij != nil:
		o.dij.Reseat(next)
	default:
		o.c = sssp.NewComputer(next)
	}
	o.g = next
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
	if o.memoStamp == nil {
		return
	}
	drop := affected == nil
	for _, r := range o.targets {
		if drop {
			break
		}
		drop = affected[r]
	}
	if drop {
		o.memoEpoch = bumpEpoch(o.memoStamp, o.memoEpoch)
		return
	}
	// Stamp 0 is permanently invalid: epochs start at 1 and skip 0 on
	// wrap, so zeroing a row's stamp retires it without an epoch bump.
	for v, a := range affected {
		if a {
			o.memoStamp[v] = 0
		}
	}
}
