// Package brandes implements Brandes' exact betweenness-centrality
// algorithm [8] and the exact dependency-score machinery the paper's
// samplers are defined in terms of: single-source dependency vectors
// δ_s•(·) (Eq. 2/4), per-target dependency columns δ_·•(r) (the MH
// chain's unnormalised stationary distribution, Eq. 5), edge betweenness
// (the Girvan–Newman substrate [19]) and stress centrality.
//
// All betweenness values use the paper's Eq. 1 normalisation,
// BC(v) = (1/(n(n-1))) Σ_{s≠t≠v} σ_st(v)/σ_st ∈ [0,1]; dependency
// scores are raw (unnormalised) as in Eq. 2.
package brandes

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"bcmh/internal/graph"
	"bcmh/internal/sssp"
)

// Accumulate computes Brandes' dependency scores δ_source•(v) for every
// v from an SPD, writing them into delta (which must have length n; it
// is zeroed first). After the call delta[v] = δ_source•(v) for v ≠
// source and delta[source] = 0.
//
// The recursion is Eq. 4: δ_s•(u) = Σ_{w: u ∈ P_s(w)} σ_su/σ_sw (1 +
// δ_s•(w)), evaluated by scanning vertices in reverse distance order
// and, for each w, distributing to every SPD parent u. Cost O(m)
// unweighted / O(m) after the SPD is built for weighted graphs.
func Accumulate(g *graph.Graph, spd *sssp.SPD, delta []float64) {
	if len(delta) != g.N() {
		panic("brandes: Accumulate delta length mismatch")
	}
	for i := range delta {
		delta[i] = 0
	}
	order := spd.Order
	for i := len(order) - 1; i >= 0; i-- {
		w := order[i]
		if spd.Sigma[w] == 0 {
			continue
		}
		coeff := (1 + delta[w]) / spd.Sigma[w]
		ns := g.Neighbors(w)
		ws := g.NeighborWeights(w)
		for j, u := range ns {
			wt := 1.0
			if ws != nil {
				wt = ws[j]
			}
			if spd.OnShortestPath(u, w, wt) {
				delta[u] += spd.Sigma[u] * coeff
			}
		}
	}
	delta[spd.Source] = 0
}

// DependencyOnTarget returns δ_source•(target): the dependency of
// source on target, the quantity one MH acceptance test needs. One
// traversal and accumulation, O(m) (the full vector is computed and one
// entry read) — exactly the per-sample cost the paper states.
func DependencyOnTarget(c *sssp.Computer, scratch []float64, source, target int) float64 {
	spd := c.Run(source)
	Accumulate(c.Graph(), spd, scratch)
	return scratch[target]
}

// BC computes exact betweenness centrality for every vertex with
// Brandes' algorithm: n traversals with dependency accumulation,
// O(nm) unweighted / O(nm + n² log n) weighted.
func BC(g *graph.Graph) []float64 {
	n := g.N()
	bc := make([]float64, n)
	c := sssp.NewComputer(g)
	delta := make([]float64, n)
	for s := 0; s < n; s++ {
		spd := c.Run(s)
		Accumulate(g, spd, delta)
		for v := 0; v < n; v++ {
			bc[v] += delta[v]
		}
	}
	normalize(bc, n)
	return bc
}

// Pass is one Brandes pass on a fast traversal kernel: Run traverses
// from a source, Accumulate runs the kernel's backward pass over that
// traversal, and DeltaOf reads δ_source•(v) by vertex id. *sssp.BFS
// and *sssp.Dijkstra implement it.
type Pass interface {
	Run(source int)
	Accumulate()
	DeltaOf(v int) float64
}

// NewPass returns the fast kernel for the undirected graph g: an
// sssp.Dijkstra when g is weighted, sssp.NewBFS's kernel otherwise.
func NewPass(g *graph.Graph) Pass {
	if g.Weighted() {
		return sssp.NewDijkstra(g)
	}
	return sssp.NewBFS(g)
}

// BCParallel computes exact betweenness with sources fanned out over
// `workers` goroutines (0 means GOMAXPROCS), each running the fast
// kernel's Brandes pass (NewPass: a BFS or Dijkstra traversal and
// its pull-form backward pass). Worker w takes sources w, w+workers, ...
// into a private vector and the vectors are summed in worker order, so
// the result is bit-reproducible for a fixed worker count. It agrees
// with BC up to rounding, since the pull-form pass and the addition
// order differ from BC's (the tests hold it within 1e-12). A directed
// graph, which the fast kernels do not take, gets BC itself.
func BCParallel(g *graph.Graph, workers int) []float64 {
	if g.Directed() {
		return BC(g)
	}
	n := g.N()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	partial := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := NewPass(g)
			acc := make([]float64, n)
			for s := w; s < n; s += workers {
				k.Run(s)
				k.Accumulate()
				for v := range acc {
					acc[v] += k.DeltaOf(v)
				}
			}
			partial[w] = acc
		}(w)
	}
	wg.Wait()
	bc := make([]float64, n)
	for w := 0; w < workers; w++ {
		for v := 0; v < n; v++ {
			bc[v] += partial[w][v]
		}
	}
	normalize(bc, n)
	return bc
}

func normalize(bc []float64, n int) {
	if n < 2 {
		return
	}
	scale := 1 / (float64(n) * float64(n-1))
	for i := range bc {
		bc[i] *= scale
	}
}

// DependencyVector returns the column δ_v•(r) for all sources v — the
// unnormalised stationary distribution of the paper's MH chain (Eq. 5).
// Cost: n traversals (O(nm)); this is ground-truth machinery for the
// experiments, not part of any estimator's hot path.
func DependencyVector(g *graph.Graph, r int) []float64 {
	out, _ := DependencyVectorParallelContext(context.Background(), g, r, 0)
	return out
}

// DependencyVectorParallelContext is DependencyVector with sources
// fanned out over `workers` goroutines (0 = GOMAXPROCS). Undirected
// graphs take the identity fast path (one shared target-side
// traversal, then a forward BFS/Dijkstra plus O(n) scan per source —
// see identity.go); directed graphs run the reference Brandes
// accumulation per source. Workers poll ctx between source traversals
// (each a full BFS/Dijkstra, so the check is free by comparison) and
// the whole computation stops within one traversal per worker of a
// cancellation. On cancellation the returned slice is nil and the
// error is ctx's.
func DependencyVectorParallelContext(ctx context.Context, g *graph.Graph, r int, workers int) ([]float64, error) {
	n := g.N()
	if r < 0 || r >= n {
		panic("brandes: DependencyVector target out of range")
	}
	if !g.Directed() {
		if g.Weighted() {
			return DependencyVectorWithWeightedTargetContext(ctx, g, sssp.NewWeightedTargetSPD(sssp.NewDijkstra(g), r), workers)
		}
		return DependencyVectorWithTargetContext(ctx, g, sssp.NewTargetSPD(sssp.NewBFS(g), r), workers)
	}
	out := make([]float64, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	column := func(from int) error {
		c := sssp.NewComputer(g)
		delta := make([]float64, n)
		for v := from; v < n; v += workers {
			if err := ctx.Err(); err != nil {
				return err
			}
			out[v] = DependencyOnTarget(c, delta, v, r) // disjoint writes
		}
		return nil
	}
	if workers <= 1 {
		workers = 1
		if err := column(0); err != nil {
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
			errs[w] = column(w)
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

// BCOfVertexExact returns the exact betweenness of r via its dependency
// column: BC(r) = (1/(n(n-1))) Σ_v δ_v•(r).
func BCOfVertexExact(g *graph.Graph, r int) float64 {
	dep := DependencyVector(g, r)
	var sum float64
	for _, d := range dep {
		sum += d
	}
	n := g.N()
	if n < 2 {
		return 0
	}
	return sum / (float64(n) * float64(n-1))
}

// EdgeKey canonicalises an undirected edge as [2]int{min, max}.
func EdgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// EdgeBC computes exact edge betweenness for every edge: the number of
// shortest paths crossing the edge, summed over unordered vertex pairs
// (each ordered-pair contribution is halved). This is the quantity the
// Girvan–Newman community algorithm [19] removes edges by.
func EdgeBC(g *graph.Graph) (map[[2]int]float64, error) {
	if g.Directed() {
		return nil, fmt.Errorf("brandes: EdgeBC requires an undirected graph")
	}
	n := g.N()
	ebc := make(map[[2]int]float64, g.M())
	c := sssp.NewComputer(g)
	delta := make([]float64, n)
	for s := 0; s < n; s++ {
		spd := c.Run(s)
		for i := range delta {
			delta[i] = 0
		}
		order := spd.Order
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			if spd.Sigma[w] == 0 {
				continue
			}
			coeff := (1 + delta[w]) / spd.Sigma[w]
			ns := g.Neighbors(w)
			ws := g.NeighborWeights(w)
			for j, u := range ns {
				wt := 1.0
				if ws != nil {
					wt = ws[j]
				}
				if spd.OnShortestPath(u, w, wt) {
					contrib := spd.Sigma[u] * coeff
					delta[u] += contrib
					ebc[EdgeKey(u, w)] += contrib
				}
			}
		}
	}
	// Each unordered pair {s,t} was counted from both endpoints.
	for k := range ebc {
		ebc[k] /= 2
	}
	return ebc, nil
}
