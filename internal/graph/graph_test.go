package graph

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"bcmh/internal/rng"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(1), g.Degree(0))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("undirected edge missing a direction")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge")
	}
	if g.Directed() || g.Weighted() {
		t.Fatal("flags wrong")
	}
}

func TestBuilderDropsSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(1, 1)
	b.AddEdge(0, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("self-loop not dropped: m=%d", g.M())
	}
}

func TestBuilderMergesParallelEdges(t *testing.T) {
	b := NewBuilder(2)
	b.AddWeightedEdge(0, 1, 5)
	b.AddWeightedEdge(1, 0, 9)
	b.AddWeightedEdge(0, 1, 7)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("parallel edges not merged: m=%d", g.M())
	}
	w, ok := g.Weight(0, 1)
	if !ok || w != 5 {
		t.Fatalf("kept weight %v, want first-added 5", w)
	}
	// Both directions must agree on the kept weight.
	w2, _ := g.Weight(1, 0)
	if w2 != 5 {
		t.Fatalf("asymmetric weight after merge: %v vs %v", w, w2)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range edge not rejected")
	}
	b2 := NewBuilder(2)
	b2.AddWeightedEdge(0, 1, -1)
	if _, err := b2.Build(); err == nil {
		t.Fatal("negative weight not rejected")
	}
	b3 := NewBuilder(2)
	b3.AddWeightedEdge(0, 1, 0)
	if _, err := b3.Build(); err == nil {
		t.Fatal("zero weight not rejected")
	}
}

func TestDirectedBuilder(t *testing.T) {
	b := NewDirectedBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Directed() {
		t.Fatal("not directed")
	}
	if g.M() != 2 {
		t.Fatalf("m=%d", g.M())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("directed adjacency wrong")
	}
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 4)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	ns := g.Neighbors(0)
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			t.Fatalf("adjacency not sorted: %v", ns)
		}
	}
}

func TestWeightLookup(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 2.5)
	b.AddWeightedEdge(1, 2, 4)
	g := b.MustBuild()
	if !g.Weighted() {
		t.Fatal("graph should be weighted")
	}
	if w, ok := g.Weight(0, 1); !ok || w != 2.5 {
		t.Fatalf("weight(0,1) = %v,%v", w, ok)
	}
	if _, ok := g.Weight(0, 2); ok {
		t.Fatal("missing edge reported present")
	}
	// Unweighted graph reports weight 1.
	u := Path(3)
	if w, ok := u.Weight(0, 1); !ok || w != 1 {
		t.Fatalf("unweighted weight = %v,%v", w, ok)
	}
	if u.NeighborWeights(0) != nil {
		t.Fatal("unweighted graph should have nil weights")
	}
}

func TestForEachEdgeUndirectedOnce(t *testing.T) {
	g := Cycle(5)
	count := 0
	g.ForEachEdge(func(u, v int, w float64) {
		if u >= v {
			t.Fatalf("edge (%d,%d) not reported with u<v", u, v)
		}
		if w != 1 {
			t.Fatalf("unweighted edge weight %v", w)
		}
		count++
	})
	if count != 5 {
		t.Fatalf("edge count %d", count)
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil || g.M() != 2 {
		t.Fatalf("FromEdges: %v %v", g, err)
	}
	if _, err := FromEdges(2, [][2]int{{0, 9}}); err == nil {
		t.Fatal("bad edge accepted")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Cycle(6)
	sub, m, err := InducedSubgraph(g, []int{0, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 4 {
		t.Fatalf("sub n=%d", sub.N())
	}
	// Edges kept: 0-1, 1-2. Vertex 4 is isolated in the subgraph.
	if sub.M() != 2 {
		t.Fatalf("sub m=%d", sub.M())
	}
	if m[3] != 4 {
		t.Fatalf("mapping %v", m)
	}
	if _, _, err := InducedSubgraph(g, []int{0, 0}); err == nil {
		t.Fatal("duplicate vertex accepted")
	}
	if _, _, err := InducedSubgraph(g, []int{99}); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
}

func TestInducedSubgraphKeepsWeights(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 3)
	b.AddWeightedEdge(1, 2, 7)
	g := b.MustBuild()
	sub, _, err := InducedSubgraph(g, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := sub.Weight(0, 1); !ok || w != 7 {
		t.Fatalf("subgraph weight %v %v", w, ok)
	}
}

func TestRemoveVertex(t *testing.T) {
	g := Star(5)
	h, err := RemoveVertex(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 5 || h.M() != 0 {
		t.Fatalf("removing star center: n=%d m=%d", h.N(), h.M())
	}
	if _, err := RemoveVertex(g, -1); err == nil {
		t.Fatal("bad vertex accepted")
	}
}

func TestMaxDegreeAndString(t *testing.T) {
	g := Star(7)
	if g.MaxDegree() != 6 {
		t.Fatalf("max degree %d", g.MaxDegree())
	}
	if !strings.Contains(g.String(), "n=7") {
		t.Fatalf("string: %s", g.String())
	}
}

func TestBuildProperty(t *testing.T) {
	// Random edge multisets: built graph is simple, degree sum = 2m,
	// adjacency symmetric.
	f := func(seed uint64, nRaw, eRaw uint8) bool {
		n := int(nRaw%20) + 2
		e := int(eRaw % 60)
		r := rng.New(seed)
		b := NewBuilder(n)
		for i := 0; i < e; i++ {
			b.AddEdge(r.Intn(n), r.Intn(n))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		degSum := 0
		for v := 0; v < n; v++ {
			ns := g.Neighbors(v)
			degSum += len(ns)
			for i, u := range ns {
				if u == v {
					return false // self loop survived
				}
				if i > 0 && ns[i-1] >= u {
					return false // unsorted or duplicate
				}
				if !g.HasEdge(u, v) {
					return false // asymmetric
				}
			}
		}
		return degSum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Weight returns the weight of edge (u,v) and whether the edge exists.
// Unweighted graphs report weight 1 for existing edges.
func (g *Graph) Weight(u, v int) (float64, bool) {
	ns := g.Neighbors(u)
	i := sort.SearchInts(ns, v)
	if i >= len(ns) || ns[i] != v {
		return 0, false
	}
	if ws := g.NeighborWeights(u); ws != nil {
		return ws[i], true
	}
	return 1, true
}
