package mcmc

import (
	"fmt"
	"math"

	"bcmh/internal/graph"
	"bcmh/internal/sssp"
)

// Extended relative betweenness — the paper's footnote 2 in §4.3:
//
//	BC_rj(ri) = 1/(n(n-1)) Σ_v Σ_{t≠v} min{1, δ_vt(ri)/δ_vt(rj)}
//
// where δ_vt(r) = σ_vt(r)/σ_vt is the pair dependency. Compared to
// Eq. 23's source-level scores this compares the two candidates' share
// of every individual (v,t) geodesic bundle, which distinguishes
// vertices that Eq. 23's aggregated δ_v• scores cannot.
//
// The pair dependency factors over the SPDs of ri and rj:
// σ_vt(r) = σ_vr · σ_rt when d(v,r) + d(r,t) = d(v,t), else 0 — so one
// traversal from each of ri, rj plus one per source v suffices:
// O(n(m+n)) total for unweighted graphs. No program uses it; it lives
// beside its tests.

// ExtendedRelativeExact computes the footnote-2 extended relative
// betweenness score of ri with respect to rj, exactly.
func ExtendedRelativeExact(g *graph.Graph, ri, rj int) (float64, error) {
	n := g.N()
	if ri < 0 || ri >= n || rj < 0 || rj >= n {
		return 0, fmt.Errorf("mcmc: extended relative target out of range")
	}
	if n < 2 {
		return 0, fmt.Errorf("mcmc: graph too small (n=%d)", n)
	}
	// Each Computer owns the SPD its Run returns, so the two target
	// traversals stay valid while c runs every source.
	spdI := sssp.NewComputer(g).Run(ri)
	spdJ := sssp.NewComputer(g).Run(rj)
	c := sssp.NewComputer(g)
	var total float64
	for v := 0; v < n; v++ {
		spdV := c.Run(v)
		for t := 0; t < n; t++ {
			if t == v || spdV.Sigma[t] == 0 {
				continue
			}
			di := pairDependency(spdV, spdI, v, t, ri)
			dj := pairDependency(spdV, spdJ, v, t, rj)
			total += ratio01(di, dj)
		}
	}
	return total / (float64(n) * float64(n-1)), nil
}

// pairDependency returns δ_vt(r) = σ_vt(r)/σ_vt given the SPD rooted at
// v (for σ_vt and d(v,·)) and the SPD rooted at r (for σ_rt and
// d(r,t)). Undirected graphs: σ_vr read from spdR's row at v
// (σ_rv = σ_vr) keeps everything to the two precomputed traversals.
func pairDependency(spdV, spdR *sssp.SPD, v, t, r int) float64 {
	if r == v || r == t {
		return 0 // interior vertices only, as in Eq. 1
	}
	dvr := spdR.Dist[v] // d(r,v) = d(v,r)
	drt := spdR.Dist[t]
	dvt := spdV.Dist[t]
	if dvr == sssp.Unreachable || drt == sssp.Unreachable || dvt == sssp.Unreachable {
		return 0
	}
	const eps = 1e-9
	if math.Abs(dvr+drt-dvt) > eps*(1+math.Abs(dvt)) {
		return 0
	}
	return spdR.Sigma[v] * spdR.Sigma[t] / spdV.Sigma[t]
}
