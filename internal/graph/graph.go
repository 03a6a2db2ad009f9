// Package graph provides the graph substrate for the betweenness
// estimators: an immutable compressed-sparse-row (CSR) representation
// with a mutable builder, readers and writers for edge-list files,
// synthetic generators spanning the structural regimes the paper's
// evaluation needs (scale-free, homogeneous random, small-world, grid,
// separator families, community structure), and structural analyses
// (connectivity, components, diameter).
//
// The paper assumes simple, undirected, connected, loop-free graphs;
// Builder enforces simplicity (self-loops dropped, parallel edges
// merged) and the analyses in this package let callers extract the
// largest connected component when a generator or input file is not
// connected.
//
// Mutation has one path. ApplyEditsOverlay absorbs an edit batch in
// O(batch) as a delta overlay: replacement adjacency lists for the
// touched vertices over the shared, unmoved base CSR, so Neighbors and
// the traversal kernels see the mutated graph without a rebuild. An
// overlaid graph answers every accessor identically to its compacted
// form (Compact folds the overlay into a flat CSR preserving version
// and adjacency order, so traversals are bit-identical), and
// ShouldCompactOverlay says when a lineage has outgrown the overlay
// representation; RebaseCompacted re-anchors batches that landed
// while a background fold ran. ApplyEdits is the batch plus an
// immediate Compact, for callers that want a clean CSR (WAL replay).
// The amortized AffectedTracker bounds which vertices an edit batch
// can have affected (by the biconnected-block factorization of
// shortest paths), which is what lets caches survive mutations.
package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Graph is an immutable simple graph in CSR form. Vertices are the
// integers [0, N()). For undirected graphs every edge {u,v} is stored in
// both adjacency lists; M() counts each such edge once.
type Graph struct {
	offsets  []int     // len n+1; adjacency of v is adj[offsets[v]:offsets[v+1]]
	adj      []int     // concatenated sorted adjacency lists
	weights  []float64 // parallel to adj; nil for unweighted graphs
	m        int       // number of edges (undirected edges counted once)
	directed bool
	version  uint64   // mutation stamp: 0 from a Builder, +1 per edit batch
	ov       *overlay // delta overlay over the base CSR; nil for clean graphs

	// degOrd caches DegreeOrdering, propagated along the mutation
	// lineage so every version agrees on one ordering (see
	// DegreeOrdering for why stability beats freshness).
	degOrd atomic.Pointer[Ordering]
}

// inheritOrdering copies g's cached degree ordering into next, keeping
// a mutation lineage on one ordering value. Called by every derivation
// that preserves the vertex set (ApplyEditsOverlay, Compact,
// RebaseCompacted).
func (next *Graph) inheritOrdering(g *Graph) {
	if o := g.degOrd.Load(); o != nil {
		next.degOrd.Store(o)
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of edges; for undirected graphs each edge {u,v}
// counts once.
func (g *Graph) M() int { return g.m }

// Directed reports whether the graph was built as directed.
func (g *Graph) Directed() bool { return g.directed }

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// Degree returns the out-degree of v (degree, for undirected graphs).
func (g *Graph) Degree(v int) int {
	if g.ov != nil {
		if i := g.ov.find(v); i >= 0 {
			return len(g.ov.lists[i])
		}
	}
	return g.offsets[v+1] - g.offsets[v]
}

// Neighbors returns the sorted adjacency list of v as a shared slice.
// Callers must not modify it.
func (g *Graph) Neighbors(v int) []int {
	if g.ov != nil {
		if i := g.ov.find(v); i >= 0 {
			return g.ov.lists[i]
		}
	}
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// NeighborWeights returns the edge weights parallel to Neighbors(v).
// It returns nil for unweighted graphs.
func (g *Graph) NeighborWeights(v int) []float64 {
	if g.weights == nil {
		return nil
	}
	if g.ov != nil {
		if i := g.ov.find(v); i >= 0 {
			return g.ov.wlists[i]
		}
	}
	return g.weights[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the edge (u,v) exists, by binary search in u's
// adjacency list.
func (g *Graph) HasEdge(u, v int) bool {
	ns := g.Neighbors(u)
	i := sort.SearchInts(ns, v)
	return i < len(ns) && ns[i] == v
}

// ForEachEdge invokes fn once per edge. For undirected graphs each edge
// {u,v} is reported once with u < v; for directed graphs every arc (u,v)
// is reported. The weight is 1 for unweighted graphs.
func (g *Graph) ForEachEdge(fn func(u, v int, w float64)) {
	for u := 0; u < g.N(); u++ {
		ns := g.Neighbors(u)
		ws := g.NeighborWeights(u)
		for i, v := range ns {
			if !g.directed && v < u {
				continue
			}
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			fn(u, v, w)
		}
	}
}

// MaxDegree returns the maximum degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// String returns a compact one-line summary, handy in logs.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	w := ""
	if g.Weighted() {
		w = " weighted"
	}
	return fmt.Sprintf("graph{n=%d m=%d %s%s}", g.N(), g.M(), kind, w)
}

// Builder accumulates edges and produces an immutable Graph. The zero
// value is not usable; construct with NewBuilder. Builders are not safe
// for concurrent use.
type Builder struct {
	n        int
	directed bool
	us, vs   []int
	ws       []float64
	weighted bool
	err      error
}

// NewBuilder returns a builder for an undirected simple graph on n
// vertices (0..n-1).
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// NewDirectedBuilder returns a builder for a directed simple graph on n
// vertices. The betweenness estimators require undirected input, but the
// substrate supports directed graphs for completeness (e.g. SPDs are
// DAGs and the traversal code is shared).
func NewDirectedBuilder(n int) *Builder { return &Builder{n: n, directed: true} }

// AddEdge records the unweighted edge (u,v). Self-loops are silently
// dropped (the paper assumes loop-free graphs); out-of-range endpoints
// put the builder in an error state reported by Build.
func (b *Builder) AddEdge(u, v int) { b.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge records the edge (u,v) with weight w. Once any edge
// carries a weight other than 1, the built graph is weighted. Negative
// or zero weights are an error: the shortest-path machinery requires
// positive weights, exactly as the paper assumes.
func (b *Builder) AddWeightedEdge(u, v int, w float64) {
	if b.err != nil {
		return
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		b.err = fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
		return
	}
	if w <= 0 {
		b.err = fmt.Errorf("graph: edge (%d,%d) has non-positive weight %v", u, v, w)
		return
	}
	if u == v {
		return // drop self-loop
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.ws = append(b.ws, w)
	if w != 1 {
		b.weighted = true
	}
}

// Build produces the immutable Graph. Parallel edges are merged keeping
// the first occurrence's weight. Build may be called once; the builder
// should be discarded afterwards.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	type half struct {
		to int
		w  float64
	}
	// Degree counting pass (both directions for undirected).
	deg := make([]int, b.n)
	for i := range b.us {
		deg[b.us[i]]++
		if !b.directed {
			deg[b.vs[i]]++
		}
	}
	offsets := make([]int, b.n+1)
	for v := 0; v < b.n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	tmp := make([]half, offsets[b.n])
	fill := make([]int, b.n)
	copy(fill, offsets[:b.n])
	for i := range b.us {
		u, v, w := b.us[i], b.vs[i], b.ws[i]
		tmp[fill[u]] = half{v, w}
		fill[u]++
		if !b.directed {
			tmp[fill[v]] = half{u, w}
			fill[v]++
		}
	}
	// Sort each adjacency list and drop duplicate endpoints.
	adj := make([]int, 0, len(tmp))
	var weights []float64
	if b.weighted {
		weights = make([]float64, 0, len(tmp))
	}
	newOffsets := make([]int, b.n+1)
	for v := 0; v < b.n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		lst := tmp[lo:hi]
		sort.Slice(lst, func(i, j int) bool { return lst[i].to < lst[j].to })
		newOffsets[v] = len(adj)
		for i, h := range lst {
			if i > 0 && h.to == lst[i-1].to {
				continue // merge parallel edge, keep first weight
			}
			adj = append(adj, h.to)
			if b.weighted {
				weights = append(weights, h.w)
			}
		}
	}
	newOffsets[b.n] = len(adj)
	g := &Graph{offsets: newOffsets, adj: adj, weights: weights, directed: b.directed}
	if b.directed {
		g.m = len(adj)
	} else {
		g.m = len(adj) / 2
	}
	return g, nil
}

// MustBuild is Build that panics on error, for tests and generators whose
// inputs are valid by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds an undirected graph from an explicit edge list.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// InducedSubgraph returns the subgraph induced by keep (which must
// contain distinct valid vertex ids) along with the mapping from new ids
// to original ids (newToOld[i] is the original id of new vertex i).
// Edge weights are preserved.
func InducedSubgraph(g *Graph, keep []int) (*Graph, []int, error) {
	oldToNew := make(map[int]int, len(keep))
	newToOld := make([]int, len(keep))
	for i, v := range keep {
		if v < 0 || v >= g.N() {
			return nil, nil, fmt.Errorf("graph: induced subgraph vertex %d out of range", v)
		}
		if _, dup := oldToNew[v]; dup {
			return nil, nil, fmt.Errorf("graph: induced subgraph vertex %d repeated", v)
		}
		oldToNew[v] = i
		newToOld[i] = v
	}
	var b *Builder
	if g.directed {
		b = NewDirectedBuilder(len(keep))
	} else {
		b = NewBuilder(len(keep))
	}
	for _, u := range keep {
		nu := oldToNew[u]
		ns := g.Neighbors(u)
		ws := g.NeighborWeights(u)
		for i, v := range ns {
			nv, ok := oldToNew[v]
			if !ok {
				continue
			}
			if !g.directed && nv < nu {
				continue // add each undirected edge once
			}
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			b.AddWeightedEdge(nu, nv, w)
		}
	}
	sub, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return sub, newToOld, nil
}

// RemoveVertex returns a copy of g with vertex v isolated (all incident
// edges removed). Vertex ids are unchanged, which keeps betweenness
// bookkeeping straightforward for the cascading-failure example.
func RemoveVertex(g *Graph, v int) (*Graph, error) {
	if v < 0 || v >= g.N() {
		return nil, fmt.Errorf("graph: RemoveVertex %d out of range", v)
	}
	var b *Builder
	if g.directed {
		b = NewDirectedBuilder(g.N())
	} else {
		b = NewBuilder(g.N())
	}
	g.ForEachEdge(func(u, w int, wt float64) {
		if u == v || w == v {
			return
		}
		b.AddWeightedEdge(u, w, wt)
	})
	return b.Build()
}
