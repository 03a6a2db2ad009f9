package brandes

import (
	"bcmh/internal/graph"
	"bcmh/internal/sssp"
)

// Stress centrality (Shimbel 1953): Stress(v) = Σ_{s≠v≠t} σ_st(v), the
// raw count of shortest paths through v over ordered pairs. The paper's
// conclusion proposes extending its MH technique to other indices;
// stress is the natural first candidate because its dependency scores
// factor over the same SPDs (Brandes 2008, generic accumulation):
//
//	δS_s(v) = σ_sv · g_s(v),  g_s(v) = Σ_{w: v ∈ P_s(w)} (g_s(w) + 1)
//
// where g_s(v) counts SPD paths from v to every descendant.

// AccumulateStress computes stress dependency scores δS_source•(v) for
// every v from an SPD, writing them into delta (length n, zeroed
// first). delta[v] = Σ_t σ_source,t(v) for v ≠ source.
func AccumulateStress(g *graph.Graph, spd *sssp.SPD, delta []float64) {
	if len(delta) != g.N() {
		panic("brandes: AccumulateStress delta length mismatch")
	}
	for i := range delta {
		delta[i] = 0
	}
	// First pass (reverse distance order): g-counts into delta.
	order := spd.Order
	for i := len(order) - 1; i >= 0; i-- {
		w := order[i]
		if spd.Sigma[w] == 0 {
			continue
		}
		ns := g.Neighbors(w)
		ws := g.NeighborWeights(w)
		for j, u := range ns {
			wt := 1.0
			if ws != nil {
				wt = ws[j]
			}
			if spd.OnShortestPath(u, w, wt) {
				delta[u] += delta[w] + 1
			}
		}
	}
	// Second pass: δS = σ · g, with endpoints zeroed.
	for _, v := range order {
		delta[v] *= spd.Sigma[v]
	}
	delta[spd.Source] = 0
}

// StressDependencyOnTarget returns δS_source•(target): one traversal.
func StressDependencyOnTarget(c *sssp.Computer, scratch []float64, source, target int) float64 {
	spd := c.Run(source)
	AccumulateStress(c.Graph(), spd, scratch)
	return scratch[target]
}

// StressOfVertexExact returns Stress(r) via its dependency column.
func StressOfVertexExact(g *graph.Graph, r int) float64 {
	n := g.N()
	c := sssp.NewComputer(g)
	delta := make([]float64, n)
	var sum float64
	for v := 0; v < n; v++ {
		sum += StressDependencyOnTarget(c, delta, v, r)
	}
	return sum
}
