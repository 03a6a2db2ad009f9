// Package linalg is the sparse linear-algebra kernel behind
// random-walk (current-flow) betweenness: a deterministic
// Jacobi-preconditioned conjugate-gradient solver for graph-Laplacian
// systems L·x = b on connected undirected graphs.
//
// The Laplacian of a connected graph is symmetric positive
// semi-definite with nullspace span{1}, so L·x = b is solvable exactly
// when b ⊥ 1 and the solution is unique up to a constant. The solver
// pins both sides down by projecting onto the sum-zero subspace: b is
// recentred before iterating and the returned x satisfies Σx = 0 —
// the same normalisation the dense pseudo-inverse L⁺ gives, which is
// what the current-flow formulas downstream difference away anyway.
//
// Determinism: fixed iteration order, no randomness, no concurrency —
// two solves of the same system return bit-identical vectors, which
// the engine's result caches and the measure-generic estimation API
// rely on.
package linalg

import (
	"fmt"
	"math"

	"bcmh/internal/graph"
)

// DefaultTol is the default relative-residual convergence threshold
// ‖b−Lx‖ ≤ Tol·‖b‖. 1e-13 keeps the downstream current-flow columns
// within 1e-9 of a dense direct solve on the graph sizes the exact
// cross-checks cover.
const DefaultTol = 1e-13

// Laplacian is an operator view of a graph's combinatorial Laplacian:
// (L·x)_v = deg(v)·x_v − Σ_{u∼v} x_u. It never materialises the
// matrix; Apply streams the CSR once. Edge weights are ignored — the
// repo's weights are shortest-path distances, not conductances, so the
// random-walk kernel treats every edge as unit conductance.
type Laplacian struct {
	g   *graph.Graph
	deg []float64 // diagonal (degrees), the Jacobi preconditioner
}

// NewLaplacian builds the Laplacian operator of g, which must be
// undirected (the Laplacian of a directed graph is not symmetric and
// CG does not apply).
func NewLaplacian(g *graph.Graph) (*Laplacian, error) {
	if g == nil {
		return nil, fmt.Errorf("linalg: nil graph")
	}
	if g.Directed() {
		return nil, fmt.Errorf("linalg: Laplacian requires an undirected graph")
	}
	n := g.N()
	deg := make([]float64, n)
	for v := 0; v < n; v++ {
		deg[v] = float64(g.Degree(v))
	}
	return &Laplacian{g: g, deg: deg}, nil
}

// N returns the operator's dimension.
func (l *Laplacian) N() int { return l.g.N() }

// Apply computes out = L·x.
func (l *Laplacian) Apply(x, out []float64) {
	for v := 0; v < l.g.N(); v++ {
		s := l.deg[v] * x[v]
		for _, u := range l.g.Neighbors(v) {
			s -= x[u]
		}
		out[v] = s
	}
}

// Solver solves L·x = b by preconditioned conjugate gradients, holding
// its scratch vectors so repeated solves on one graph (the deg(r)+1
// solves one random-walk column needs) allocate nothing. Not safe for
// concurrent use; clone one per goroutine.
type Solver struct {
	l *Laplacian

	// Tol is the relative-residual threshold (DefaultTol when zero).
	Tol float64
	// MaxIter caps CG iterations (10·n+100 when zero — far beyond the
	// O(√κ) iterations a connected graph needs at these tolerances).
	MaxIter int
	// Iters reports the iteration count of the last Solve.
	Iters int

	r, z, p, ap []float64
}

// NewSolver returns a solver over l with default tolerances.
func NewSolver(l *Laplacian) *Solver {
	n := l.N()
	return &Solver{
		l:  l,
		r:  make([]float64, n),
		z:  make([]float64, n),
		p:  make([]float64, n),
		ap: make([]float64, n),
	}
}

// Solve solves L·x = b, overwriting x with the sum-zero solution. b is
// recentred onto the Laplacian's range internally (b itself is not
// modified); callers passing b ⊥ 1 — every current-flow right-hand
// side e_s − e_t is — get the exact system they wrote. x's incoming
// content seeds the iteration (zeros are always a valid start).
func (s *Solver) Solve(b, x []float64) error {
	n := s.l.N()
	if len(b) != n || len(x) != n {
		return fmt.Errorf("linalg: Solve dimension mismatch (n=%d, len(b)=%d, len(x)=%d)", n, len(b), len(x))
	}
	tol := s.Tol
	if tol <= 0 {
		tol = DefaultTol
	}
	maxIter := s.MaxIter
	if maxIter <= 0 {
		maxIter = 10*n + 100
	}

	// Project b onto range(L) = 1⊥ and measure it there: a component
	// along 1 is unreachable and would stall the residual forever.
	var bMean float64
	for _, v := range b {
		bMean += v
	}
	bMean /= float64(n)
	var bNorm float64
	for i := 0; i < n; i++ {
		d := b[i] - bMean
		bNorm += d * d
	}
	bNorm = math.Sqrt(bNorm)
	if bNorm == 0 {
		for i := range x {
			x[i] = 0
		}
		s.Iters = 0
		return nil
	}
	threshold := tol * bNorm

	center(x)
	s.l.Apply(x, s.ap)
	for i := 0; i < n; i++ {
		s.r[i] = (b[i] - bMean) - s.ap[i]
	}

	var rz float64
	for i := 0; i < n; i++ {
		s.z[i] = s.r[i] / s.l.deg[i] // Jacobi: M⁻¹ = diag(deg)⁻¹
		rz += s.r[i] * s.z[i]
		s.p[i] = s.z[i]
	}

	for iter := 1; iter <= maxIter; iter++ {
		s.l.Apply(s.p, s.ap)
		var pap float64
		for i := 0; i < n; i++ {
			pap += s.p[i] * s.ap[i]
		}
		if pap <= 0 {
			// p drifted into the nullspace by rounding; recentre and
			// bail if nothing is left.
			center(s.p)
			s.l.Apply(s.p, s.ap)
			pap = 0
			for i := 0; i < n; i++ {
				pap += s.p[i] * s.ap[i]
			}
			if pap <= 0 {
				return fmt.Errorf("linalg: CG broke down at iteration %d (search direction in nullspace)", iter)
			}
		}
		alpha := rz / pap
		var rNorm float64
		for i := 0; i < n; i++ {
			x[i] += alpha * s.p[i]
			s.r[i] -= alpha * s.ap[i]
			rNorm += s.r[i] * s.r[i]
		}
		if math.Sqrt(rNorm) <= threshold {
			s.Iters = iter
			center(x)
			return nil
		}
		var rzNext float64
		for i := 0; i < n; i++ {
			s.z[i] = s.r[i] / s.l.deg[i]
			rzNext += s.r[i] * s.z[i]
		}
		beta := rzNext / rz
		rz = rzNext
		for i := 0; i < n; i++ {
			s.p[i] = s.z[i] + beta*s.p[i]
		}
	}
	return fmt.Errorf("linalg: CG failed to converge within %d iterations (relative tolerance %g)", maxIter, tol)
}

// center subtracts the mean, projecting v onto the sum-zero subspace.
func center(v []float64) {
	var mean float64
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	for i := range v {
		v[i] -= mean
	}
}
