package measure

import (
	"context"
	"fmt"
	"math"
	"sort"

	"bcmh/internal/graph"
	"bcmh/internal/linalg"
	"bcmh/internal/mcmc"
	"bcmh/internal/sssp"
)

// Target is the per-(graph, measure, vertex) read-only state shared by
// every chain and every exact-column worker estimating one vertex: the
// target-side shortest-path snapshot for coverage/kpath (the same
// TargetSPD the BC oracles read, drawn from the mcmc pool so the two
// measures share one BFS per vertex), or the current-flow tables for
// rwbc. Immutable after construction and safe to share across
// goroutines; per-chain mutable state lives in Evaluator.
type Target struct {
	Spec Spec
	R    int

	n    int
	tspd *sssp.TargetSPD // coverage, kpath
	flow *flowTarget     // rwbc
}

// NewTarget builds the shared per-target state for spec at vertex r.
// BC is rejected: its target state belongs to the mcmc.BC source and
// never goes through this package. For rwbc this is the expensive step
// — deg(r) Laplacian CG solves plus an O(deg(r)·n log n) table build —
// and ctx is polled between solves so a cancelled request stops paying
// promptly. For coverage/kpath it is one BFS, shared with the pool's
// per-target snapshot cache when pool is non-nil.
func NewTarget(ctx context.Context, g *graph.Graph, spec Spec, r int, pool *mcmc.BufferPool) (*Target, error) {
	if spec.IsBC() {
		return nil, fmt.Errorf("measure: bc targets are sampled by mcmc.BC, not measure.NewTarget")
	}
	if err := spec.Supports(g); err != nil {
		return nil, err
	}
	if r < 0 || r >= g.N() {
		return nil, fmt.Errorf("measure: target vertex %d out of range [0,%d)", r, g.N())
	}
	t := &Target{Spec: spec, R: r, n: g.N()}
	switch spec.Kind {
	case Coverage, KPath:
		if pool != nil {
			t.tspd = pool.TargetSnapshot(g, r)
		}
		if t.tspd == nil {
			t.tspd = sssp.NewTargetSPD(sssp.NewBFS(g), r)
		}
	case RWBC:
		flow, err := newFlowTarget(ctx, g, r)
		if err != nil {
			return nil, err
		}
		t.flow = flow
	}
	return t, nil
}

// flowTarget holds everything rwbc evaluation needs about vertex r:
// for each neighbor j of r, the potential column a_j = L⁺(e_r − e_j)
// and the precomputed absolute-deviation sums S_j(v) = Σ_t |a_j(v) −
// a_j(t)|. With those, Newman's throughput statistic is closed-form
// per vertex (see dep): a_j(v) − a_j(t) is the potential drop across
// the edge (r,j) for a unit v→t flow, so |·| summed over r's edges and
// halved is the current through r, and summing the t-side analytically
// via S_j turns the O(n) per-pair sum into O(deg(r)) per vertex.
type flowTarget struct {
	r    int
	n    int
	cols [][]float64 // cols[i][v] = a_j(v) for the i-th neighbor j of r
	sAbs [][]float64 // sAbs[i][v] = Σ_t |cols[i][v] − cols[i][t]|
	atR  []float64   // cols[i][r]
}

// newFlowTarget runs the deg(r) CG solves and builds the S tables.
func newFlowTarget(ctx context.Context, g *graph.Graph, r int) (*flowTarget, error) {
	lap, err := linalg.NewLaplacian(g)
	if err != nil {
		return nil, err
	}
	solver := linalg.NewSolver(lap)
	n := g.N()
	nbrs := g.Neighbors(r)
	ft := &flowTarget{
		r:    r,
		n:    n,
		cols: make([][]float64, len(nbrs)),
		sAbs: make([][]float64, len(nbrs)),
		atR:  make([]float64, len(nbrs)),
	}
	b := make([]float64, n)
	for i, j := range nbrs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b[r], b[j] = 1, -1
		x := make([]float64, n)
		if err := solver.Solve(b, x); err != nil {
			return nil, fmt.Errorf("measure: rwbc solve for edge (%d,%d): %w", r, j, err)
		}
		b[r], b[j] = 0, 0
		ft.cols[i] = x
		ft.atR[i] = x[r]
		ft.sAbs[i] = absDeviationSums(x)
	}
	return ft, nil
}

// absDeviationSums returns S with S[v] = Σ_t |col[v] − col[t]|, in
// O(n log n) via one sort + prefix sums: for the value x at ascending
// rank i (prefix P_i = sum of the i smaller values, total T = Σcol),
// Σ_t |x − col_t| = T − 2·P_i + x·(2i − n). Ties are indifferent — a
// tied term contributes 0 on either side of the rank.
func absDeviationSums(col []float64) []float64 {
	n := len(col)
	idx := make([]int, n)
	for v := range idx {
		idx[v] = v
	}
	sort.Slice(idx, func(a, b int) bool { return col[idx[a]] < col[idx[b]] })
	s := make([]float64, n)
	var total float64
	for _, v := range idx {
		total += col[v]
	}
	var prefix float64
	for i, v := range idx {
		x := col[v]
		s[v] = total - 2*prefix + x*float64(2*i-n)
		prefix += x
	}
	return s
}

// dep evaluates the rwbc statistic d_v(r) = Σ_{t≠v} T_r(v,t), where
// T_r(v,t) is the current through r for a unit v→t flow (endpoint
// convention T_r = 1 when r ∈ {v,t}):
//
//	d_r(r) = n − 1,
//	d_v(r) = 1 + (1/2) Σ_{j∼r} [ S_j(v) − |a_j(v) − a_j(r)| ]  (v ≠ r).
//
// The bracket is Σ_{t∉{v,r}} |a_j(v) − a_j(t)| — the t = r term is
// peeled off S_j(v) because the pair (v,r) contributes through the
// endpoint convention (the leading 1) instead of through current. The
// result is clamped at 0 against rounding in the S tables (each
// bracket is ≥ 0 exactly, since S_j(v) contains the peeled term).
func (ft *flowTarget) dep(v int) float64 {
	if v == ft.r {
		return float64(ft.n - 1)
	}
	var s float64
	for i, col := range ft.cols {
		s += ft.sAbs[i][v] - math.Abs(col[v]-ft.atR[i])
	}
	d := 1 + 0.5*s
	if d < 0 {
		d = 0
	}
	return d
}
