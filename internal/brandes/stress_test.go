package brandes

import (
	"math"
	"testing"
	"testing/quick"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
	"bcmh/internal/sssp"
)

// naiveStress computes Stress(v) = Σ_{s≠v≠t} σ_st(v) by the O(n³)
// definition, for cross-checking the accumulation.
func naiveStress(g *graph.Graph) []float64 {
	n := g.N()
	dist := make([][]float64, n)
	sigma := make([][]float64, n)
	c := sssp.NewComputer(g)
	for s := 0; s < n; s++ {
		spd := c.Run(s)
		dist[s] = append([]float64(nil), spd.Dist...)
		sigma[s] = append([]float64(nil), spd.Sigma...)
	}
	out := make([]float64, n)
	const eps = 1e-9
	for v := 0; v < n; v++ {
		for s := 0; s < n; s++ {
			if s == v {
				continue
			}
			for t := 0; t < n; t++ {
				if t == s || t == v || sigma[s][t] == 0 {
					continue
				}
				if dist[s][v] == sssp.Unreachable || dist[v][t] == sssp.Unreachable {
					continue
				}
				if math.Abs(dist[s][v]+dist[v][t]-dist[s][t]) <= eps*(1+math.Abs(dist[s][t])) {
					out[v] += sigma[s][v] * sigma[v][t]
				}
			}
		}
	}
	return out
}

func TestStressPath(t *testing.T) {
	// P4: vertex 1 is interior to ordered pairs (0,2),(0,3),(2,0),(3,0):
	// stress 4. Vertex 2 symmetric.
	s := StressAll(graph.Path(4))
	want := []float64{0, 4, 4, 0}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("P4 stress %v want %v", s, want)
		}
	}
}

func TestStressDiamond(t *testing.T) {
	// C4 (diamond 0-1-3-2-0): each of the two 0↔3 geodesics passes one
	// middle vertex: stress(1) = stress(2) = 2 (ordered pairs 0→3, 3→0
	// contribute one path each).
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	s := StressAll(g)
	if s[1] != 2 || s[2] != 2 || s[0] != 2 || s[3] != 2 {
		t.Fatalf("diamond stress %v", s)
	}
}

func TestStressMatchesNaive(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.KarateClub(),
		graph.Grid(4, 5),
		graph.Wheel(8),
		graph.Barbell(4, 4, 2),
	} {
		got := StressAll(g)
		want := naiveStress(g)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-9 {
				t.Fatalf("%v: stress[%d] = %v want %v", g, v, got[v], want[v])
			}
		}
	}
}

func TestStressMatchesNaiveProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%25) + 5
		g := graph.ErdosRenyiGNP(n, 4/float64(n), rng.New(seed))
		got := StressAll(g)
		want := naiveStress(g)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStressVsBetweennessRelation(t *testing.T) {
	// On trees σ_st = 1 everywhere, so stress = n(n-1)·BC exactly.
	g := graph.KaryTree(15, 2)
	stress := StressAll(g)
	bc := BC(g)
	n := float64(g.N())
	for v := range bc {
		if math.Abs(stress[v]-bc[v]*n*(n-1)) > 1e-9 {
			t.Fatalf("tree relation broken at %d: %v vs %v", v, stress[v], bc[v]*n*(n-1))
		}
	}
}

func TestStressOfVertexExact(t *testing.T) {
	g := graph.KarateClub()
	all := StressAll(g)
	for _, r := range []int{0, 5, 33} {
		if got := StressOfVertexExact(g, r); math.Abs(got-all[r]) > 1e-9 {
			t.Fatalf("single-vertex stress %v want %v", got, all[r])
		}
	}
}

func TestAccumulateStressPanics(t *testing.T) {
	g := graph.Path(3)
	spd := sssp.NewComputer(g).Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("bad delta length did not panic")
		}
	}()
	AccumulateStress(g, spd, make([]float64, 1))
}

// StressAll computes exact stress centrality for every vertex (ordered
// pair counts; halve for unordered on undirected graphs).
func StressAll(g *graph.Graph) []float64 {
	n := g.N()
	out := make([]float64, n)
	c := sssp.NewComputer(g)
	delta := make([]float64, n)
	for s := 0; s < n; s++ {
		spd := c.Run(s)
		AccumulateStress(g, spd, delta)
		for v := 0; v < n; v++ {
			out[v] += delta[v]
		}
	}
	return out
}
