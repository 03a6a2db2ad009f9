package main

import (
	"cmp"
	"container/heap"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
)

// edge is one undirected edge; w is 0 on unweighted graphs.
type edge struct{ u, v, w int32 }

// graph is the benchmark's own CSR copy of a generated graph. The server
// only ever sees its edge list; this copy feeds the Brandes reference the
// replies are checked against.
type graph struct {
	n        int
	edges    []edge
	weighted bool
	off      []int32 // off[v]..off[v+1] indexes adj/wt
	adj      []int32
	wt       []int32
}

func newGraph(n int, edges []edge, weighted bool) *graph {
	g := &graph{n: n, edges: edges, weighted: weighted, off: make([]int32, n+1)}
	for _, e := range edges {
		g.off[e.u+1]++
		g.off[e.v+1]++
	}
	for v := 0; v < n; v++ {
		g.off[v+1] += g.off[v]
	}
	g.adj = make([]int32, 2*len(edges))
	g.wt = make([]int32, 2*len(edges))
	fill := append([]int32(nil), g.off[:n]...)
	for _, e := range edges {
		g.adj[fill[e.u]], g.wt[fill[e.u]] = e.v, e.w
		fill[e.u]++
		g.adj[fill[e.v]], g.wt[fill[e.v]] = e.u, e.w
		fill[e.v]++
	}
	return g
}

func (g *graph) degree(v int) int { return int(g.off[v+1] - g.off[v]) }

func (g *graph) hasEdge(u, v int) bool {
	if g.degree(u) > g.degree(v) {
		u, v = v, u
	}
	for _, x := range g.adj[g.off[u]:g.off[u+1]] {
		if int(x) == v {
			return true
		}
	}
	return false
}

// edgeList renders the upload body: one "u v" or "u v w" line per edge.
func (g *graph) edgeList() []byte {
	var b []byte
	for _, e := range g.edges {
		b = strconv.AppendInt(b, int64(e.u), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(e.v), 10)
		if g.weighted {
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(e.w), 10)
		}
		b = append(b, '\n')
	}
	return b
}

// byDegree returns the vertices in descending degree order, ties by id.
func (g *graph) byDegree() []int {
	vs := make([]int, g.n)
	for i := range vs {
		vs[i] = i
	}
	sort.SliceStable(vs, func(i, j int) bool { return g.degree(vs[i]) > g.degree(vs[j]) })
	return vs
}

// stratify orders vertices so that every prefix spans their range of
// betweenness evenly: sorted by bc and cut into blocks of four neighbours
// in that order, the result takes one vertex of every block, in a seeded
// block order, before a second of any. Up to three vertices are dropped
// to fill the last block.
func stratify(vs []int, bc []float64, rnd *rand.Rand) []int {
	const b = 4
	s := slices.Clone(vs)
	slices.SortStableFunc(s, func(x, y int) int { return cmp.Compare(bc[x], bc[y]) })
	s = s[:len(s)/b*b]
	for k := 0; k < len(s); k += b {
		rnd.Shuffle(b, func(i, j int) { s[k+i], s[k+j] = s[k+j], s[k+i] })
	}
	blocks := rnd.Perm(len(s) / b)
	out := make([]int, 0, len(s))
	for j := 0; j < b; j++ {
		for _, k := range blocks {
			out = append(out, s[k*b+j])
		}
	}
	return out
}

// newRand returns the generator every seeded choice of a workload draws
// from; stream separates independent uses of one seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// barabasiAlbert grows a preferential-attachment graph: a (k+1)-clique,
// then each new vertex links to k distinct earlier vertices drawn in
// proportion to their degree. The result is connected.
func barabasiAlbert(n, k int, rnd *rand.Rand) *graph {
	var edges []edge
	var ends []int32 // every edge endpoint once: a degree-weighted urn
	add := func(u, v int) {
		edges = append(edges, edge{u: int32(u), v: int32(v)})
		ends = append(ends, int32(u), int32(v))
	}
	for u := 0; u <= k; u++ {
		for v := u + 1; v <= k; v++ {
			add(u, v)
		}
	}
	picked := make([]int, 0, k)
	for v := k + 1; v < n; v++ {
		picked = picked[:0]
		for len(picked) < k {
			t := int(ends[rnd.IntN(len(ends))])
			dup := false
			for _, p := range picked {
				dup = dup || p == t
			}
			if !dup {
				picked = append(picked, t)
			}
		}
		for _, t := range picked {
			add(v, t)
		}
	}
	return newGraph(n, edges, false)
}

// grid returns the rows×cols lattice; with maxW > 0 every edge gets an
// integer weight drawn uniformly from [1, maxW].
func grid(rows, cols, maxW int, rnd *rand.Rand) *graph {
	var edges []edge
	id := func(r, c int) int32 { return int32(r*cols + c) }
	weight := func() int32 {
		if maxW == 0 {
			return 0
		}
		return int32(1 + rnd.IntN(maxW))
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, edge{id(r, c), id(r, c+1), weight()})
			}
			if r+1 < rows {
				edges = append(edges, edge{id(r, c), id(r+1, c), weight()})
			}
		}
	}
	return newGraph(rows*cols, edges, maxW > 0)
}

// reference returns the exact betweenness of g. The graphs are fixed, and
// Brandes on the largest takes seconds, so the values are kept in dir
// under a hash of the edge list and read back by later runs; with dir
// empty they are always computed.
func reference(g *graph, dir string) []float64 {
	if dir == "" {
		return brandes(g)
	}
	sum := sha256.Sum256(g.edgeList())
	path := filepath.Join(dir, fmt.Sprintf("bc-%d-%x.json", g.n, sum[:8]))
	var bc []float64
	if data, err := os.ReadFile(path); err == nil && json.Unmarshal(data, &bc) == nil && len(bc) == g.n {
		return bc
	}
	bc = brandes(g)
	// A failed write only costs the next run the computation.
	if data, err := json.Marshal(bc); err == nil && os.WriteFile(path+".tmp", data, 0o644) == nil {
		os.Rename(path+".tmp", path)
	}
	return bc
}

// brandes computes exact betweenness for every vertex with Brandes'
// algorithm, normalised as the service reports it:
// BC(v) = Σ_{s≠v≠t} σ_st(v)/σ_st / (n(n−1)). Sources are split over
// GOMAXPROCS workers. It shares no code with the program under test.
func brandes(g *graph) []float64 {
	workers := runtime.GOMAXPROCS(0)
	parts := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w] = brandesSources(g, w, workers)
		}()
	}
	wg.Wait()
	bc := make([]float64, g.n)
	scale := 1 / (float64(g.n) * float64(g.n-1))
	for v := range bc {
		for _, p := range parts {
			bc[v] += p[v]
		}
		bc[v] *= scale
	}
	return bc
}

// brandesSources accumulates the dependencies of sources from, from+stride, ….
func brandesSources(g *graph, from, stride int) []float64 {
	n := g.n
	bc := make([]float64, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	dist := make([]int64, n)
	settled := make([]bool, n)
	order := make([]int32, 0, n)
	var pq distHeap
	for s := from; s < n; s += stride {
		for v := range dist {
			dist[v], sigma[v], delta[v] = -1, 0, 0
		}
		dist[s], sigma[s] = 0, 1
		order = order[:0]
		if g.weighted {
			clear(settled)
			heap.Push(&pq, distItem{0, int32(s)})
			for pq.Len() > 0 {
				it := heap.Pop(&pq).(distItem)
				u := it.v
				if settled[u] || it.d != dist[u] {
					continue
				}
				settled[u] = true
				order = append(order, u)
				for i := g.off[u]; i < g.off[u+1]; i++ {
					x, d := g.adj[i], dist[u]+int64(g.wt[i])
					switch {
					case dist[x] < 0 || d < dist[x]:
						dist[x], sigma[x] = d, sigma[u]
						heap.Push(&pq, distItem{d, x})
					case d == dist[x]:
						sigma[x] += sigma[u]
					}
				}
			}
		} else {
			order = append(order, int32(s))
			for i := 0; i < len(order); i++ {
				u := order[i]
				du := dist[u] + 1
				for _, x := range g.adj[g.off[u]:g.off[u+1]] {
					if dist[x] < 0 {
						dist[x] = du
						order = append(order, x)
					}
					if dist[x] == du {
						sigma[x] += sigma[u]
					}
				}
			}
		}
		for i := len(order) - 1; i > 0; i-- {
			w := order[i]
			coeff := (1 + delta[w]) / sigma[w]
			for j := g.off[w]; j < g.off[w+1]; j++ {
				u := g.adj[j]
				step := int64(1)
				if g.weighted {
					step = int64(g.wt[j])
				}
				if dist[u]+step == dist[w] {
					delta[u] += sigma[u] * coeff
				}
			}
			bc[w] += delta[w]
		}
	}
	return bc
}

type distItem struct {
	d int64
	v int32
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// topK returns the k vertices of largest value, ties by id.
func topK(vals []float64, k int) []int {
	vs := make([]int, len(vals))
	for i := range vs {
		vs[i] = i
	}
	sort.SliceStable(vs, func(i, j int) bool { return vals[vs[i]] > vals[vs[j]] })
	return vs[:k]
}
