package graph

// Vertex orderings: a cached degree-descending relabeling consumed by
// the traversal kernels (sssp.BFS lays out its private CSR in this
// order so bottom-up sweeps stream hub rows cache-friendly). The
// public CSR keeps the caller's vertex ids.

// Ordering is a bijective relabeling of a graph's vertices. Perm[v] is
// the slot assigned to vertex v; Inv[s] is the vertex occupying slot
// s. Both slices are immutable after construction and shared freely.
type Ordering struct {
	Perm []int32
	Inv  []int32
}

// DegreeOrdering returns the degree-descending ordering of g — slot 0
// holds the highest-degree vertex, ties broken by ascending vertex id
// — computed once and cached.
//
// The cache pointer is propagated along the mutation lineage
// (ApplyEditsOverlay, Compact, RebaseCompacted), so every
// version of one graph answers with the *same* Ordering value. That
// stability is deliberate, and stronger than freshness: traversal
// kernels reseated across versions and the per-target snapshots they
// share (mcmc.BufferPool) recognize each other's layout by pointer
// identity, which only works if the whole lineage agrees on one
// ordering. Edit batches rarely move the degree ranking enough to
// matter for locality; when they do, a rebuilt lineage (a fresh Build
// or DecodeBinary) starts a fresh cache.
func (g *Graph) DegreeOrdering() *Ordering {
	if o := g.degOrd.Load(); o != nil {
		return o
	}
	o := computeDegreeOrdering(g)
	if g.degOrd.CompareAndSwap(nil, o) {
		return o
	}
	// A concurrent caller computed the same ordering first; adopt its
	// value so pointer identity holds across all users.
	return g.degOrd.Load()
}

// computeDegreeOrdering builds the degree-descending ordering by
// counting sort: O(n + maxDegree), deterministic (ties ascending by
// vertex id).
func computeDegreeOrdering(g *Graph) *Ordering {
	n := g.N()
	o := &Ordering{Perm: make([]int32, n), Inv: make([]int32, n)}
	deg := make([]int32, n)
	maxd := int32(0)
	for v := 0; v < n; v++ {
		d := int32(g.Degree(v))
		deg[v] = d
		if d > maxd {
			maxd = d
		}
	}
	// start[d] = first slot of degree-d vertices under descending order.
	start := make([]int32, maxd+2)
	for _, d := range deg {
		start[d]++
	}
	sum := int32(0)
	for d := maxd; d >= 0; d-- {
		c := start[d]
		start[d] = sum
		sum += c
	}
	for v := 0; v < n; v++ {
		s := start[deg[v]]
		start[deg[v]]++
		o.Perm[v] = s
		o.Inv[s] = int32(v)
	}
	return o
}
