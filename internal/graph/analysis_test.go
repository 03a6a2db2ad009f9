package graph

import (
	"fmt"
	"strings"
	"testing"

	"bcmh/internal/rng"
)

func TestBFSDistances(t *testing.T) {
	g := Path(5)
	dist := make([]int, 5)
	BFSDistances(g, 0, dist)
	for i, d := range dist {
		if d != i {
			t.Fatalf("dist %v", dist)
		}
	}
	// Disconnected: isolated vertex stays -1.
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	h := b.MustBuild()
	dist3 := make([]int, 3)
	BFSDistances(h, 0, dist3)
	if dist3[2] != -1 {
		t.Fatalf("unreachable distance %d", dist3[2])
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.MustBuild()
	comp, sizes := ConnectedComponents(g)
	if len(sizes) != 3 {
		t.Fatalf("components %v", sizes)
	}
	if comp[0] != comp[2] || comp[3] != comp[4] || comp[0] == comp[3] || comp[5] == comp[0] {
		t.Fatalf("labels %v", comp)
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 6 {
		t.Fatalf("sizes %v don't cover graph", sizes)
	}
}

func TestIsConnected(t *testing.T) {
	if !IsConnected(Cycle(4)) {
		t.Fatal("cycle should be connected")
	}
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	if IsConnected(b.MustBuild()) {
		t.Fatal("graph with isolated vertices reported connected")
	}
}

func TestLargestComponent(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1) // size 2
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 2) // size 3 triangle
	// vertices 5,6 isolated
	g := b.MustBuild()
	lc, m, err := LargestComponent(g)
	if err != nil {
		t.Fatal(err)
	}
	if lc.N() != 3 || lc.M() != 3 {
		t.Fatalf("largest component n=%d m=%d", lc.N(), lc.M())
	}
	orig := map[int]bool{}
	for _, v := range m {
		orig[v] = true
	}
	if !orig[2] || !orig[3] || !orig[4] {
		t.Fatalf("mapping %v", m)
	}
}

func TestComponentsExcluding(t *testing.T) {
	g := Star(5)
	sizes, err := ComponentsExcluding(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 4 {
		t.Fatalf("star minus center: %v", sizes)
	}
	// Removing a leaf leaves one component of size 4.
	sizes, _ = ComponentsExcluding(g, 3)
	if len(sizes) != 1 || sizes[0] != 4 {
		t.Fatalf("star minus leaf: %v", sizes)
	}
	if _, err := ComponentsExcluding(g, 99); err == nil {
		t.Fatal("bad vertex accepted")
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := Path(10)
	ecc, far := Eccentricity(g, 0)
	if ecc != 9 || far != 9 {
		t.Fatalf("eccentricity %d far %d", ecc, far)
	}
	if ExactDiameter(g) != 9 {
		t.Fatalf("path diameter %d", ExactDiameter(g))
	}
	if ExactDiameter(Complete(5)) != 1 {
		t.Fatal("complete diameter")
	}
	if ExactDiameter(Cycle(8)) != 4 {
		t.Fatal("cycle diameter")
	}
}

func TestApproxDiameter(t *testing.T) {
	r := rng.New(3)
	// Double sweep is exact on trees and paths.
	if d := ApproxDiameter(Path(20), r, 1); d != 19 {
		t.Fatalf("approx diameter on path: %d", d)
	}
	tree := RandomTree(200, rng.New(7))
	if ApproxDiameter(tree, r, 2) != ExactDiameter(tree) {
		t.Fatal("double sweep should be exact on a tree")
	}
	// Always a valid lower bound.
	g := ErdosRenyiGNP(150, 0.05, rng.New(9))
	lc, _, _ := LargestComponent(g)
	if ApproxDiameter(lc, r, 3) > ExactDiameter(lc) {
		t.Fatal("approx diameter exceeded exact")
	}
	if ApproxDiameter(lc, r, 0) < 1 {
		t.Fatal("sweeps<1 should still sweep once")
	}
}

func TestVertexDiameter(t *testing.T) {
	if VertexDiameter(Path(5), rng.New(1), 1) != 5 {
		t.Fatal("vertex diameter of P5 should be 5")
	}
}

func TestDegreeHistogram(t *testing.T) {
	h := DegreeHistogram(Star(5))
	if h[1] != 4 || h[4] != 1 {
		t.Fatalf("histogram %v", h)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	g := WithUniformWeights(Cycle(8), 1, 3, rng.New(5))
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	h, ids, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() || !h.Weighted() {
		t.Fatalf("round trip: %v vs %v", h, g)
	}
	// Re-map and compare weights.
	for newID, oldID := range ids {
		for i, nb := range h.Neighbors(newID) {
			oldNb := ids[nb]
			want, ok := g.Weight(int(oldID), int(oldNb))
			if !ok {
				t.Fatalf("edge (%d,%d) not in original", oldID, oldNb)
			}
			got := h.NeighborWeights(newID)[i]
			if got != want {
				t.Fatalf("weight mismatch %v vs %v", got, want)
			}
		}
	}
}

func TestReadEdgeListFormats(t *testing.T) {
	in := "# comment\n% also comment\n\n10 20\n20 30 2.5\n"
	g, ids, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("parsed n=%d m=%d", g.N(), g.M())
	}
	if ids[0] != 10 || ids[1] != 20 || ids[2] != 30 {
		t.Fatalf("id mapping %v", ids)
	}
	if !g.Weighted() {
		t.Fatal("mixed weights should yield weighted graph")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"1\n",        // too few fields
		"1 2 3 4\n",  // too many fields
		"a 2\n",      // bad endpoint
		"1 b\n",      // bad endpoint
		"1 2 zero\n", // bad weight
		"1 2 -4\n",   // non-positive weight
		"1 2 0\n",    // zero weight
	}
	for _, in := range cases {
		if _, _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
}

func TestReadWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/g.txt"
	g := KarateClub()
	if err := WriteEdgeListFile(path, g); err != nil {
		t.Fatal(err)
	}
	h, _, err := ReadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 34 || h.M() != 78 {
		t.Fatalf("file round trip: %v", h)
	}
	if _, _, err := ReadEdgeListFile(dir + "/missing.txt"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// ComponentsExcluding returns the sizes of the connected components of
// G \ v (v removed). This is the decomposition Theorem 2 reasons about:
// a vertex r is a balanced separator when at least two components of
// G \ r have Θ(n) vertices.
func ComponentsExcluding(g *Graph, v int) ([]int, error) {
	n := g.N()
	if v < 0 || v >= n {
		return nil, fmt.Errorf("graph: ComponentsExcluding vertex %d out of range", v)
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	comp[v] = -2 // excluded
	var sizes []int
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if comp[s] != -1 {
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
			for _, w := range g.Neighbors(u) {
				if comp[w] == -1 {
					comp[w] = id
					queue = append(queue, w)
				}
			}
		}
		sizes = append(sizes, size)
	}
	return sizes, nil
}

// ExactDiameter computes the diameter by BFS from every vertex: O(nm).
// Disconnected graphs report the largest finite eccentricity.
func ExactDiameter(g *Graph) int {
	n := g.N()
	dist := make([]int, n)
	diam := 0
	for s := 0; s < n; s++ {
		BFSDistances(g, s, dist)
		for _, d := range dist {
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// VertexDiameter returns the number of vertices on a longest shortest
// path (diameter+1 for unweighted graphs), the quantity the RK [30]
// sample bound needs.
func VertexDiameter(g *Graph, r *rng.RNG, sweeps int) int {
	return ApproxDiameter(g, r, sweeps) + 1
}

// DegreeHistogram returns counts[d] = number of vertices of degree d.
func DegreeHistogram(g *Graph) []int {
	counts := make([]int, g.MaxDegree()+1)
	for v := 0; v < g.N(); v++ {
		counts[g.Degree(v)]++
	}
	return counts
}
