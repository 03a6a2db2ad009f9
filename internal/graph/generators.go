package graph

import (
	"fmt"
	"math"

	"bcmh/internal/rng"
)

// This file contains the synthetic graph families used by the
// experiments. Deterministic families (path, grid, barbell, ...) take no
// RNG; random families take an explicit *rng.RNG so runs reproduce.
// All generators return simple undirected graphs; random families are not
// guaranteed connected — use LargestComponent for the estimators, which
// require connected input.

// Path returns the path graph on n vertices: 0-1-2-...-(n-1).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.MustBuild()
}

// Cycle returns the cycle graph on n >= 3 vertices.
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: Cycle requires n >= 3")
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.MustBuild()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.MustBuild()
}

// Star returns the star graph with center 0 and n-1 leaves. The center
// is the canonical maximum-betweenness vertex: every leaf pair's unique
// shortest path passes through it.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	return b.MustBuild()
}

// Wheel returns the wheel graph: a cycle on vertices 1..n-1 plus hub 0
// adjacent to all of them. Requires n >= 4.
func Wheel(n int) *Graph {
	if n < 4 {
		panic("graph: Wheel requires n >= 4")
	}
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
		next := i + 1
		if next == n {
			next = 1
		}
		b.AddEdge(i, next)
	}
	return b.MustBuild()
}

// Grid returns the rows×cols 2-D lattice with 4-neighbor connectivity.
// Vertex (r,c) has id r*cols+c. High-diameter, road-network-like regime.
func Grid(rows, cols int) *Graph {
	if rows < 1 || cols < 1 {
		panic("graph: Grid requires positive dimensions")
	}
	b := NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.MustBuild()
}

// KaryTree returns the complete k-ary tree on n vertices: vertex i's
// parent is (i-1)/k. Vertex 0 is the root.
func KaryTree(n, k int) *Graph {
	if k < 1 {
		panic("graph: KaryTree requires k >= 1")
	}
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(i, (i-1)/k)
	}
	return b.MustBuild()
}

// RandomTree returns a uniformly random labelled tree on n vertices via
// a random Prüfer sequence. Trees make good worst cases for betweenness
// samplers: every internal vertex lies on many unique shortest paths.
func RandomTree(n int, r *rng.RNG) *Graph {
	if n <= 0 {
		panic("graph: RandomTree requires n >= 1")
	}
	if n == 1 {
		return NewBuilder(1).MustBuild()
	}
	if n == 2 {
		b := NewBuilder(2)
		b.AddEdge(0, 1)
		return b.MustBuild()
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = r.Intn(n)
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range prufer {
		degree[v]++
	}
	b := NewBuilder(n)
	// Classic decoding with a scan pointer over leaves.
	ptr := 0
	for degree[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range prufer {
		b.AddEdge(leaf, v)
		degree[v]--
		if degree[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for degree[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	b.AddEdge(leaf, n-1)
	return b.MustBuild()
}

// ErdosRenyiGNP returns G(n, p): each of the C(n,2) edges present
// independently with probability p. Uses geometric skipping so the cost
// is O(n + m) rather than O(n²).
func ErdosRenyiGNP(n int, p float64, r *rng.RNG) *Graph {
	if p < 0 || p > 1 {
		panic("graph: ErdosRenyiGNP requires p in [0,1]")
	}
	b := NewBuilder(n)
	if p == 0 || n < 2 {
		return b.MustBuild()
	}
	if p == 1 {
		return Complete(n)
	}
	// Enumerate edge slots in row-major order, skipping geometrically.
	logq := math.Log(1 - p)
	v, w := 1, -1
	for v < n {
		u := r.Float64()
		skip := int(math.Floor(math.Log(1-u) / logq))
		w += 1 + skip
		for w >= v && v < n {
			w -= v
			v++
		}
		if v < n {
			b.AddEdge(v, w)
		}
	}
	return b.MustBuild()
}

// ErdosRenyiGNM returns G(n, m): m distinct uniform edges. It panics if
// m exceeds C(n,2).
func ErdosRenyiGNM(n, m int, r *rng.RNG) *Graph {
	maxEdges := n * (n - 1) / 2
	if m < 0 || m > maxEdges {
		panic(fmt.Sprintf("graph: ErdosRenyiGNM m=%d out of [0,%d]", m, maxEdges))
	}
	b := NewBuilder(n)
	seen := make(map[[2]int]bool, m)
	for len(seen) < m {
		u := r.Intn(n)
		v := r.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if seen[key] {
			continue
		}
		seen[key] = true
		b.AddEdge(u, v)
	}
	return b.MustBuild()
}

// BarabasiAlbert returns a preferential-attachment graph: starting from
// a clique on m0 = attach vertices, each new vertex attaches to `attach`
// existing vertices chosen proportionally to degree (repeated-endpoint
// list method). Produces the power-law degree regime of [3,4].
func BarabasiAlbert(n, attach int, r *rng.RNG) *Graph {
	if attach < 1 || n < attach+1 {
		panic("graph: BarabasiAlbert requires 1 <= attach < n")
	}
	b := NewBuilder(n)
	// Repeated-endpoint list: vertex v appears once per incident edge.
	endpoints := make([]int, 0, 2*attach*n)
	for i := 0; i < attach; i++ {
		for j := i + 1; j < attach; j++ {
			b.AddEdge(i, j)
			endpoints = append(endpoints, i, j)
		}
	}
	if attach == 1 {
		// Degenerate seed: a single vertex with no edges; make vertex 0
		// an endpoint so the first attachment has a target.
		endpoints = append(endpoints, 0)
	}
	seen := make(map[int]bool, attach)
	targets := make([]int, 0, attach)
	for v := attach; v < n; v++ {
		for k := range seen {
			delete(seen, k)
		}
		targets = targets[:0]
		for len(targets) < attach {
			t := endpoints[r.Intn(len(endpoints))]
			if t != v && !seen[t] {
				seen[t] = true
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			b.AddEdge(v, t)
			endpoints = append(endpoints, v, t)
		}
	}
	return b.MustBuild()
}

// WattsStrogatz returns the small-world model: a ring lattice where each
// vertex connects to its k nearest neighbors (k even), with each edge
// rewired with probability beta. Self-loops and duplicates from rewiring
// are dropped by the builder.
func WattsStrogatz(n, k int, beta float64, r *rng.RNG) *Graph {
	if k < 2 || k%2 != 0 || k >= n {
		panic("graph: WattsStrogatz requires even k with 2 <= k < n")
	}
	if beta < 0 || beta > 1 {
		panic("graph: WattsStrogatz requires beta in [0,1]")
	}
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for j := 1; j <= k/2; j++ {
			target := (v + j) % n
			if r.Bernoulli(beta) {
				// Rewire to a uniform non-self endpoint.
				target = r.Intn(n)
				for target == v {
					target = r.Intn(n)
				}
			}
			b.AddEdge(v, target)
		}
	}
	return b.MustBuild()
}

// RandomRegular returns a d-regular graph on n vertices via the pairing
// (configuration) model with restarts; n*d must be even. For the small
// d used in experiments a valid pairing is found quickly.
func RandomRegular(n, d int, r *rng.RNG) *Graph {
	if d < 1 || d >= n || (n*d)%2 != 0 {
		panic("graph: RandomRegular requires 1 <= d < n with n*d even")
	}
	stubs := make([]int, n*d)
	for attempt := 0; attempt < 1000; attempt++ {
		for i := range stubs {
			stubs[i] = i / d
		}
		r.ShuffleInts(stubs)
		ok := true
		seen := make(map[[2]int]bool, n*d/2)
		b := NewBuilder(n)
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v {
				ok = false
				break
			}
			if u > v {
				u, v = v, u
			}
			key := [2]int{u, v}
			if seen[key] {
				ok = false
				break
			}
			seen[key] = true
			b.AddEdge(u, v)
		}
		if ok {
			return b.MustBuild()
		}
	}
	panic("graph: RandomRegular failed to find a simple pairing in 1000 attempts")
}

// Barbell returns two cliques of sizes k1 and k2 joined by a path of
// pathLen intermediate vertices (pathLen may be 0, joining the cliques
// by a single edge through... the two bridge endpoints). The bridge
// vertices are balanced separators in the sense of Theorem 2 when
// k1, k2 = Θ(n). Vertex layout: [0,k1) clique A, [k1,k1+pathLen) path,
// [k1+pathLen, k1+pathLen+k2) clique B.
func Barbell(k1, k2, pathLen int) *Graph {
	if k1 < 1 || k2 < 1 || pathLen < 0 {
		panic("graph: Barbell requires positive clique sizes")
	}
	n := k1 + pathLen + k2
	b := NewBuilder(n)
	for i := 0; i < k1; i++ {
		for j := i + 1; j < k1; j++ {
			b.AddEdge(i, j)
		}
	}
	for i := 0; i < k2; i++ {
		for j := i + 1; j < k2; j++ {
			b.AddEdge(k1+pathLen+i, k1+pathLen+j)
		}
	}
	// Chain: last clique-A vertex -> path -> first clique-B vertex.
	prev := k1 - 1
	for i := 0; i < pathLen; i++ {
		b.AddEdge(prev, k1+i)
		prev = k1 + i
	}
	b.AddEdge(prev, k1+pathLen)
	return b.MustBuild()
}

// Lollipop returns a clique of size k with a path of pathLen vertices
// attached to clique vertex k-1.
func Lollipop(k, pathLen int) *Graph {
	if k < 1 || pathLen < 0 {
		panic("graph: Lollipop requires k >= 1, pathLen >= 0")
	}
	b := NewBuilder(k + pathLen)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.AddEdge(i, j)
		}
	}
	prev := k - 1
	for i := 0; i < pathLen; i++ {
		b.AddEdge(prev, k+i)
		prev = k + i
	}
	return b.MustBuild()
}

// DoubleStar returns two adjacent hubs (ids 0 and 1) with k1 leaves on
// hub 0 and k2 leaves on hub 1. Both hubs are balanced vertex separators
// when k1, k2 = Θ(n): removing either leaves components of sizes
// {1×k_own leaves..} plus one big component — exactly the Theorem 2
// regime (each hub's removal isolates Θ(n) vertices from Θ(n) others).
func DoubleStar(k1, k2 int) *Graph {
	b := NewBuilder(2 + k1 + k2)
	b.AddEdge(0, 1)
	for i := 0; i < k1; i++ {
		b.AddEdge(0, 2+i)
	}
	for i := 0; i < k2; i++ {
		b.AddEdge(1, 2+k1+i)
	}
	return b.MustBuild()
}

// StarOfCliques returns a center vertex (id 0) attached to one gateway
// vertex of each of `cliques` cliques of size cliqueSize. Removing the
// center shatters the graph into l = cliques components of equal size —
// the exact construction in the proof of Theorem 2.
func StarOfCliques(cliques, cliqueSize int) *Graph {
	if cliques < 1 || cliqueSize < 1 {
		panic("graph: StarOfCliques requires positive parameters")
	}
	n := 1 + cliques*cliqueSize
	b := NewBuilder(n)
	for c := 0; c < cliques; c++ {
		base := 1 + c*cliqueSize
		for i := 0; i < cliqueSize; i++ {
			for j := i + 1; j < cliqueSize; j++ {
				b.AddEdge(base+i, base+j)
			}
		}
		b.AddEdge(0, base)
	}
	return b.MustBuild()
}

// Caveman returns the connected caveman graph: `cliques` cliques of size
// `size` arranged in a ring, where one edge of each clique is re-wired
// to the next clique to connect them.
func Caveman(cliques, size int, _ *rng.RNG) *Graph {
	if cliques < 2 || size < 2 {
		panic("graph: Caveman requires cliques >= 2, size >= 2")
	}
	n := cliques * size
	b := NewBuilder(n)
	for c := 0; c < cliques; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if i == 0 && j == 1 {
					continue // re-wired below
				}
				b.AddEdge(base+i, base+j)
			}
		}
		next := ((c + 1) % cliques) * size
		b.AddEdge(base, next+1)
	}
	return b.MustBuild()
}

// PlantedPartition returns the planted-partition (stochastic block)
// model: `groups` groups of `perGroup` vertices; within-group edges with
// probability pIn, cross-group with probability pOut. Community regime
// for the Girvan–Newman example.
func PlantedPartition(groups, perGroup int, pIn, pOut float64, r *rng.RNG) *Graph {
	if groups < 1 || perGroup < 1 {
		panic("graph: PlantedPartition requires positive sizes")
	}
	if pIn < 0 || pIn > 1 || pOut < 0 || pOut > 1 {
		panic("graph: PlantedPartition requires probabilities in [0,1]")
	}
	n := groups * perGroup
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := pOut
			if u/perGroup == v/perGroup {
				p = pIn
			}
			if r.Bernoulli(p) {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// RandomGeometric places n points uniformly in the unit square and
// connects pairs within Euclidean distance radius. It returns the graph
// and the point coordinates (used by the routing example to draw and to
// define message endpoints).
func RandomGeometric(n int, radius float64, r *rng.RNG) (*Graph, [][2]float64) {
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{r.Float64(), r.Float64()}
	}
	b := NewBuilder(n)
	r2 := radius * radius
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := pts[i][0] - pts[j][0]
			dy := pts[i][1] - pts[j][1]
			if dx*dx+dy*dy <= r2 {
				b.AddEdge(i, j)
			}
		}
	}
	return b.MustBuild(), pts
}

// WithUniformWeights returns a weighted copy of g whose edge weights are
// drawn uniformly from [lo, hi). Used by the weighted-graph experiment
// (T9). It panics if g is directed (estimators are undirected-only).
func WithUniformWeights(g *Graph, lo, hi float64, r *rng.RNG) *Graph {
	if g.Directed() {
		panic("graph: WithUniformWeights requires an undirected graph")
	}
	if lo <= 0 || hi < lo {
		panic("graph: WithUniformWeights requires 0 < lo <= hi")
	}
	b := NewBuilder(g.N())
	g.ForEachEdge(func(u, v int, _ float64) {
		b.AddWeightedEdge(u, v, r.Range(lo, hi))
	})
	return b.MustBuild()
}

// WithIntegerWeights returns a weighted copy of g whose edge weights are
// integers drawn uniformly from [lo, hi] — the weight class the
// Dijkstra kernel's exact Dial ring serves (road-style graphs). It
// panics if g is directed or the range is not positive.
func WithIntegerWeights(g *Graph, lo, hi int, r *rng.RNG) *Graph {
	if g.Directed() {
		panic("graph: WithIntegerWeights requires an undirected graph")
	}
	if lo <= 0 || hi < lo {
		panic("graph: WithIntegerWeights requires 0 < lo <= hi")
	}
	b := NewBuilder(g.N())
	g.ForEachEdge(func(u, v int, _ float64) {
		b.AddWeightedEdge(u, v, float64(lo+int(r.Float64()*float64(hi-lo+1))))
	})
	return b.MustBuild()
}
