package sssp

import (
	"math"

	"bcmh/internal/graph"
)

// Unreachable is the distance reported for vertices not reachable from
// the source.
const Unreachable = -1

// WeightEps is the relative tolerance used to decide whether an edge
// lies on a weighted shortest path (float summation order differs
// between parents). Every shortest-path-DAG consumer in the repository
// (the Computer, the Dijkstra kernel, and the identity-based dependency
// evaluators in internal/brandes) must classify ties with this same
// tolerance, or the fast and reference routes would disagree on which
// paths are "shortest".
const WeightEps = 1e-9

// SPD is the shortest-path DAG rooted at Source: for every vertex,
// its shortest-path distance, the number of shortest paths from the
// source (σ), and Order, the reachable vertices in non-decreasing
// distance order (the reverse of which is the accumulation order
// Brandes' Eq. 4 needs).
//
// An SPD returned by Computer.Run aliases the computer's internal
// buffers and is invalidated by the next Run; use Clone to retain one.
type SPD struct {
	Source int
	Dist   []float64 // hop count (unweighted) or weighted distance; Unreachable if not reached
	Sigma  []float64 // number of shortest paths Source -> v (σ_sv)
	Order  []int     // reachable vertices in non-decreasing Dist, Source first
}

// OnShortestPath reports whether edge (u,v) is a DAG edge of the SPD,
// i.e. lies on some shortest path from the source through u to v.
func (s *SPD) OnShortestPath(u, v int, w float64) bool {
	du, dv := s.Dist[u], s.Dist[v]
	if du == Unreachable || dv == Unreachable {
		return false
	}
	return math.Abs(du+w-dv) <= WeightEps*(1+math.Abs(dv))
}

// Computer runs BFS (unweighted) or Dijkstra (positive weights)
// traversals over a fixed graph, reusing all buffers. Not safe for
// concurrent use; create one Computer per goroutine.
type Computer struct {
	g   *graph.Graph
	spd SPD
	// BFS queue / shared order buffer backing.
	order []int
	// Dijkstra binary heap.
	heapV []int
	heapD []float64
	// Dijkstra settled marks, epoch-stamped so a Run resets them by
	// bumping doneEpoch instead of allocating or clearing.
	done      []uint32
	doneEpoch uint32
}

// NewComputer returns a Computer for g.
func NewComputer(g *graph.Graph) *Computer {
	n := g.N()
	c := &Computer{
		g:     g,
		order: make([]int, 0, n),
		done:  make([]uint32, n),
	}
	c.spd.Dist = make([]float64, n)
	c.spd.Sigma = make([]float64, n)
	return c
}

// Graph returns the graph this computer traverses.
func (c *Computer) Graph() *graph.Graph { return c.g }

// Run computes the SPD rooted at source, choosing BFS or Dijkstra by
// whether the graph is weighted. The returned SPD aliases internal
// buffers (see SPD docs). It panics if source is out of range.
func (c *Computer) Run(source int) *SPD {
	if source < 0 || source >= c.g.N() {
		panic("sssp: source out of range")
	}
	if c.g.Weighted() {
		return c.runDijkstra(source)
	}
	return c.runBFS(source)
}

func (c *Computer) reset(source int) {
	for i := range c.spd.Dist {
		c.spd.Dist[i] = Unreachable
		c.spd.Sigma[i] = 0
	}
	c.order = c.order[:0]
	c.spd.Source = source
}

func (c *Computer) runBFS(source int) *SPD {
	c.reset(source)
	dist, sigma := c.spd.Dist, c.spd.Sigma
	dist[source] = 0
	sigma[source] = 1
	c.order = append(c.order, source)
	for head := 0; head < len(c.order); head++ {
		u := c.order[head]
		du := dist[u]
		for _, v := range c.g.Neighbors(u) {
			switch {
			case dist[v] == Unreachable:
				dist[v] = du + 1
				sigma[v] = sigma[u]
				c.order = append(c.order, v)
			case dist[v] == du+1:
				sigma[v] += sigma[u]
			}
		}
	}
	c.spd.Order = c.order
	return &c.spd
}

// runDijkstra uses a plain binary heap with lazy deletion: stale entries
// are skipped when popped. σ accumulation follows Brandes' weighted
// variant: when a strictly shorter path to v is found σ_v is reset to
// σ_u; when an equal-length path is found σ_u is added.
func (c *Computer) runDijkstra(source int) *SPD {
	c.reset(source)
	dist, sigma := c.spd.Dist, c.spd.Sigma
	c.heapV = c.heapV[:0]
	c.heapD = c.heapD[:0]
	dist[source] = 0
	sigma[source] = 1
	c.heapPush(source, 0)
	c.doneEpoch++
	if c.doneEpoch == 0 { // stamp wrap: one O(n) clear every 2^32 runs
		clear(c.done)
		c.doneEpoch = 1
	}
	done, ep := c.done, c.doneEpoch
	for len(c.heapV) > 0 {
		u, du := c.heapPop()
		if done[u] == ep || du > dist[u] {
			continue // stale entry
		}
		done[u] = ep
		c.order = append(c.order, u)
		ws := c.g.NeighborWeights(u)
		for i, v := range c.g.Neighbors(u) {
			w := ws[i]
			nd := dist[u] + w
			switch {
			case dist[v] == Unreachable || nd < dist[v]-WeightEps*(1+math.Abs(dist[v])):
				dist[v] = nd
				sigma[v] = sigma[u]
				c.heapPush(v, nd)
			case math.Abs(nd-dist[v]) <= WeightEps*(1+math.Abs(dist[v])):
				if done[v] != ep {
					sigma[v] += sigma[u]
				}
			}
		}
	}
	c.spd.Order = c.order
	return &c.spd
}

func (c *Computer) heapPush(v int, d float64) {
	c.heapV = append(c.heapV, v)
	c.heapD = append(c.heapD, d)
	i := len(c.heapV) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if c.heapD[parent] <= c.heapD[i] {
			break
		}
		c.heapD[parent], c.heapD[i] = c.heapD[i], c.heapD[parent]
		c.heapV[parent], c.heapV[i] = c.heapV[i], c.heapV[parent]
		i = parent
	}
}

func (c *Computer) heapPop() (int, float64) {
	v, d := c.heapV[0], c.heapD[0]
	last := len(c.heapV) - 1
	c.heapV[0], c.heapD[0] = c.heapV[last], c.heapD[last]
	c.heapV = c.heapV[:last]
	c.heapD = c.heapD[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && c.heapD[l] < c.heapD[smallest] {
			smallest = l
		}
		if r < last && c.heapD[r] < c.heapD[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		c.heapD[smallest], c.heapD[i] = c.heapD[i], c.heapD[smallest]
		c.heapV[smallest], c.heapV[i] = c.heapV[i], c.heapV[smallest]
		i = smallest
	}
	return v, d
}

// randSource matches the single method of *rng.RNG the samplers need;
// declared as an interface so this package has no dependency cycle and
// tests can count draws.
type randSource interface {
	Float64() float64
}

// SamplePath draws a uniform random shortest path from spd.Source to t,
// returned as the vertex sequence source..t inclusive. It backtracks
// from t choosing each predecessor u with probability σ_u/σ_t restricted
// to SPD edges — the standard RK [30] path-sampling step. It returns nil
// if t is unreachable or equals the source.
func SamplePath(g *graph.Graph, spd *SPD, t int, r randSource) []int {
	if t == spd.Source || spd.Dist[t] == Unreachable {
		return nil
	}
	// Path length is known for unweighted; for weighted we grow a slice.
	rev := make([]int, 0, 8)
	rev = append(rev, t)
	cur := t
	for cur != spd.Source {
		ns := g.Neighbors(cur)
		ws := g.NeighborWeights(cur)
		// Total predecessor σ equals σ_cur by Brandes' identity; draw
		// x in [0, σ_cur) and walk the predecessor list.
		x := r.Float64() * spd.Sigma[cur]
		chosen := -1
		var cum float64
		for i, u := range ns {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			if !spd.OnShortestPath(u, cur, w) {
				continue
			}
			cum += spd.Sigma[u]
			if x < cum {
				chosen = u
				break
			}
		}
		if chosen == -1 {
			// Float slack: take the last valid predecessor.
			for i := len(ns) - 1; i >= 0; i-- {
				w := 1.0
				if ws != nil {
					w = ws[i]
				}
				if spd.OnShortestPath(ns[i], cur, w) {
					chosen = ns[i]
					break
				}
			}
			if chosen == -1 {
				panic("sssp: SamplePath found no predecessor (corrupt SPD)")
			}
		}
		rev = append(rev, chosen)
		cur = chosen
	}
	// Reverse into source..t order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
