package graph

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"bcmh/internal/rng"
)

// Structural metrics: local/global clustering coefficients, degeneracy
// (k-core decomposition), degree assortativity and the top-k degree
// list. No program uses them; they live beside their tests.

// LocalClustering returns the local clustering coefficient of v: the
// fraction of pairs of v's neighbors that are themselves adjacent.
// Vertices of degree < 2 have coefficient 0.
func LocalClustering(g *Graph, v int) float64 {
	ns := g.Neighbors(v)
	d := len(ns)
	if d < 2 {
		return 0
	}
	links := 0
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if g.HasEdge(ns[i], ns[j]) {
				links++
			}
		}
	}
	return 2 * float64(links) / (float64(d) * float64(d-1))
}

// AverageClustering returns the mean local clustering coefficient over
// all vertices (Watts–Strogatz's C).
func AverageClustering(g *Graph) float64 {
	n := g.N()
	if n == 0 {
		return 0
	}
	var sum float64
	for v := 0; v < n; v++ {
		sum += LocalClustering(g, v)
	}
	return sum / float64(n)
}

// GlobalClustering returns the transitivity: 3 × triangles / open
// triads ("closed paths of length two over all paths of length two").
func GlobalClustering(g *Graph) float64 {
	var closed, triads float64
	for v := 0; v < g.N(); v++ {
		ns := g.Neighbors(v)
		d := len(ns)
		if d < 2 {
			continue
		}
		triads += float64(d*(d-1)) / 2
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				if g.HasEdge(ns[i], ns[j]) {
					closed++
				}
			}
		}
	}
	if triads == 0 {
		return 0
	}
	return closed / triads
}

// CoreNumbers returns the k-core number of every vertex (the largest k
// such that the vertex belongs to a subgraph of minimum degree k),
// computed with the standard peeling algorithm in O(n + m).
func CoreNumbers(g *Graph) []int {
	n := g.N()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort vertices by degree.
	binStart := make([]int, maxDeg+2)
	for _, d := range deg {
		binStart[d+1]++
	}
	for i := 1; i < len(binStart); i++ {
		binStart[i] += binStart[i-1]
	}
	pos := make([]int, n)
	sorted := make([]int, n)
	fill := append([]int(nil), binStart[:maxDeg+1]...)
	for v := 0; v < n; v++ {
		pos[v] = fill[deg[v]]
		sorted[pos[v]] = v
		fill[deg[v]]++
	}
	core := append([]int(nil), deg...)
	for i := 0; i < n; i++ {
		v := sorted[i]
		for _, u := range g.Neighbors(v) {
			if core[u] > core[v] {
				// Move u one bucket down: swap with the first vertex of
				// its current bucket.
				du := core[u]
				pu := pos[u]
				pw := binStart[du]
				w := sorted[pw]
				if u != w {
					sorted[pu], sorted[pw] = w, u
					pos[u], pos[w] = pw, pu
				}
				binStart[du]++
				core[u]--
			}
		}
	}
	return core
}

// Degeneracy returns the graph's degeneracy (maximum core number).
func Degeneracy(g *Graph) int {
	best := 0
	for _, c := range CoreNumbers(g) {
		if c > best {
			best = c
		}
	}
	return best
}

// DegreeAssortativity returns the Pearson correlation of degrees across
// edges (Newman's r): positive when high-degree vertices attach to each
// other, negative for hub-and-spoke structure.
func DegreeAssortativity(g *Graph) float64 {
	var sx, sy, sxy, sxx, syy float64
	var cnt float64
	g.ForEachEdge(func(u, v int, _ float64) {
		// Count each undirected edge in both orientations so the
		// measure is symmetric.
		du, dv := float64(g.Degree(u)), float64(g.Degree(v))
		for _, p := range [2][2]float64{{du, dv}, {dv, du}} {
			sx += p[0]
			sy += p[1]
			sxy += p[0] * p[1]
			sxx += p[0] * p[0]
			syy += p[1] * p[1]
			cnt++
		}
	})
	if cnt == 0 {
		return 0
	}
	num := sxy/cnt - (sx/cnt)*(sy/cnt)
	den := (sxx/cnt - (sx/cnt)*(sx/cnt))
	den2 := (syy/cnt - (sy/cnt)*(sy/cnt))
	if den <= 0 || den2 <= 0 {
		return 0
	}
	return num / (math.Sqrt(den) * math.Sqrt(den2))
}

// TopKByDegree returns the k highest-degree vertices (ties broken by
// lower id), a helper shared by examples and experiments.
func TopKByDegree(g *Graph, k int) []int {
	idx := make([]int, g.N())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if g.Degree(idx[a]) != g.Degree(idx[b]) {
			return g.Degree(idx[a]) > g.Degree(idx[b])
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

func TestLocalClustering(t *testing.T) {
	// Triangle: every vertex has coefficient 1.
	tri := Complete(3)
	for v := 0; v < 3; v++ {
		if LocalClustering(tri, v) != 1 {
			t.Fatalf("triangle clustering %v", LocalClustering(tri, v))
		}
	}
	// Star center: no neighbor pair adjacent → 0. Leaves: degree 1 → 0.
	s := Star(5)
	if LocalClustering(s, 0) != 0 || LocalClustering(s, 1) != 0 {
		t.Fatal("star clustering should be 0")
	}
	// Diamond 0-1,0-2,1-2,1-3,2-3: vertex 0 neighbors {1,2} adjacent →
	// 1; vertex 1 neighbors {0,2,3}: pairs (0,2) adjacent, (0,3) no,
	// (2,3) yes → 2/3.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	if LocalClustering(g, 0) != 1 {
		t.Fatalf("diamond v0 clustering %v", LocalClustering(g, 0))
	}
	if math.Abs(LocalClustering(g, 1)-2.0/3.0) > 1e-12 {
		t.Fatalf("diamond v1 clustering %v", LocalClustering(g, 1))
	}
}

func TestAverageAndGlobalClustering(t *testing.T) {
	k := Complete(6)
	if math.Abs(AverageClustering(k)-1) > 1e-12 || math.Abs(GlobalClustering(k)-1) > 1e-12 {
		t.Fatal("complete graph clustering should be 1")
	}
	tree := KaryTree(15, 2)
	if AverageClustering(tree) != 0 || GlobalClustering(tree) != 0 {
		t.Fatal("tree clustering should be 0")
	}
	// WS with beta=0 has known clustering 3(k-2)/(4(k-1)) = 0.5 for k=4.
	ws := WattsStrogatz(40, 4, 0, rng.New(1))
	if math.Abs(AverageClustering(ws)-0.5) > 1e-12 {
		t.Fatalf("WS(k=4, beta=0) clustering %v want 0.5", AverageClustering(ws))
	}
}

func TestCoreNumbers(t *testing.T) {
	// Complete graph K5: every vertex has core number 4.
	for _, c := range CoreNumbers(Complete(5)) {
		if c != 4 {
			t.Fatalf("K5 core %d", c)
		}
	}
	// Tree: all core numbers 1.
	for _, c := range CoreNumbers(KaryTree(15, 2)) {
		if c != 1 {
			t.Fatalf("tree core %d", c)
		}
	}
	// Lollipop: clique vertices core k-1, path vertices core 1.
	g := Lollipop(5, 3)
	cores := CoreNumbers(g)
	for v := 0; v < 5; v++ {
		if cores[v] != 4 {
			t.Fatalf("lollipop clique core %d at %d", cores[v], v)
		}
	}
	for v := 5; v < 8; v++ {
		if cores[v] != 1 {
			t.Fatalf("lollipop tail core %d at %d", cores[v], v)
		}
	}
	if Degeneracy(g) != 4 {
		t.Fatalf("degeneracy %d", Degeneracy(g))
	}
}

func TestCoreNumbersProperty(t *testing.T) {
	// Invariants: core[v] <= deg(v); the subgraph induced by
	// {v: core[v] >= k} has min degree >= k within itself for k =
	// degeneracy.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 5
		g := ErdosRenyiGNP(n, 5/float64(n), rng.New(seed))
		cores := CoreNumbers(g)
		for v := 0; v < n; v++ {
			if cores[v] > g.Degree(v) || cores[v] < 0 {
				return false
			}
		}
		k := Degeneracy(g)
		var keep []int
		inSet := make([]bool, n)
		for v, c := range cores {
			if c >= k {
				keep = append(keep, v)
				inSet[v] = true
			}
		}
		for _, v := range keep {
			d := 0
			for _, u := range g.Neighbors(v) {
				if inSet[u] {
					d++
				}
			}
			if d < k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeAssortativity(t *testing.T) {
	// Star: perfectly disassortative (r = -1).
	if got := DegreeAssortativity(Star(10)); math.Abs(got+1) > 1e-9 {
		t.Fatalf("star assortativity %v want -1", got)
	}
	// Regular graphs: degenerate (zero variance) → 0 by convention.
	if got := DegreeAssortativity(Cycle(10)); got != 0 {
		t.Fatalf("cycle assortativity %v want 0", got)
	}
	// BA graphs are known disassortative-to-neutral; just check range.
	got := DegreeAssortativity(BarabasiAlbert(300, 3, rng.New(3)))
	if got < -1 || got > 1 {
		t.Fatalf("assortativity out of range: %v", got)
	}
}

func TestTopKByDegree(t *testing.T) {
	g := Star(6)
	top := TopKByDegree(g, 2)
	if top[0] != 0 {
		t.Fatalf("star top degree %v", top)
	}
	if len(TopKByDegree(g, 100)) != 6 {
		t.Fatal("k > n should clamp")
	}
}
