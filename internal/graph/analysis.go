package graph

import "bcmh/internal/rng"

// BFSDistances computes unweighted shortest-path distances from s into
// dist, which must have length g.N(). Unreachable vertices get -1.
// The scratch queue is allocated internally; for allocation-free BFS in
// hot loops use package sssp.
func BFSDistances(g *Graph, s int, dist []int) {
	if len(dist) != g.N() {
		panic("graph: BFSDistances dist length mismatch")
	}
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, g.N())
	dist[s] = 0
	queue = append(queue, s)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
}

// ConnectedComponents labels every vertex with a component id in
// [0, #components) and returns the label slice together with the size of
// each component. Directed graphs are treated as undirected (weak
// components).
func ConnectedComponents(g *Graph) (comp []int, sizes []int) {
	n := g.N()
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := len(sizes)
		comp[s] = id
		queue = queue[:0]
		queue = append(queue, s)
		size := 0
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			size++
			for _, v := range g.Neighbors(u) {
				if comp[v] < 0 {
					comp[v] = id
					queue = append(queue, v)
				}
			}
		}
		sizes = append(sizes, size)
	}
	return comp, sizes
}

// IsConnected reports whether g is connected (weakly, for directed
// graphs). The empty graph is considered connected.
func IsConnected(g *Graph) bool {
	_, sizes := ConnectedComponents(g)
	return len(sizes) <= 1
}

// LargestComponent returns the subgraph induced by g's largest connected
// component and the mapping from new ids to original ids. Ties are
// broken toward the component containing the smallest original vertex.
func LargestComponent(g *Graph) (*Graph, []int, error) {
	comp, sizes := ConnectedComponents(g)
	if len(sizes) == 0 {
		return g, nil, nil
	}
	best := 0
	for i, s := range sizes {
		if s > sizes[best] {
			best = i
		}
	}
	keep := make([]int, 0, sizes[best])
	for v, c := range comp {
		if c == best {
			keep = append(keep, v)
		}
	}
	return InducedSubgraph(g, keep)
}

// Eccentricity returns the greatest BFS distance from v to any reachable
// vertex, together with a farthest vertex.
func Eccentricity(g *Graph, v int) (ecc, farthest int) {
	dist := make([]int, g.N())
	BFSDistances(g, v, dist)
	farthest = v
	for u, d := range dist {
		if d > ecc {
			ecc = d
			farthest = u
		}
	}
	return ecc, farthest
}

// ApproxDiameter lower-bounds the diameter with k double sweeps from
// random start vertices (the standard heuristic; exact on trees). For
// the VC-dimension sample bound of [30] a lower bound on the vertex
// diameter still yields a valid — if slightly optimistic — sample size.
func ApproxDiameter(g *Graph, r *rng.RNG, sweeps int) int {
	n := g.N()
	if n == 0 {
		return 0
	}
	if sweeps < 1 {
		sweeps = 1
	}
	best := 0
	for i := 0; i < sweeps; i++ {
		start := r.Intn(n)
		_, far := Eccentricity(g, start)
		ecc, _ := Eccentricity(g, far)
		if ecc > best {
			best = ecc
		}
	}
	return best
}
