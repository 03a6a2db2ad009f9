package sssp_test

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"bcmh/internal/brandes"
	"bcmh/internal/graph"
	"bcmh/internal/rng"
	"bcmh/internal/sssp"
)

// passDeltas runs p from s and returns δ_s•(v) for every v.
func passDeltas(p brandes.Pass, s, n int) []float64 {
	p.Run(s)
	p.Accumulate()
	out := make([]float64, n)
	for v := range out {
		out[v] = p.DeltaOf(v)
	}
	return out
}

// TestPassMatchesAccumulate holds the fast kernels' backward pass to
// the reference Computer + brandes.Accumulate within 1e-12 relative,
// from every source, on every kernel route.
func TestPassMatchesAccumulate(t *testing.T) {
	grid := graph.Grid(12, 12)
	ba := graph.BarabasiAlbert(300, 3, rng.New(7))
	// Two routes from 0 to 5 whose float sums differ in the last bit,
	// (0.1+0.2)+0.3 and (0.3+0.2)+0.1: a tie only within WeightEps.
	tie := graph.NewBuilder(6)
	for _, e := range []struct {
		u, v int
		w    float64
	}{{0, 1, 0.1}, {1, 2, 0.2}, {2, 5, 0.3}, {0, 3, 0.3}, {3, 4, 0.2}, {4, 5, 0.1}} {
		tie.AddWeightedEdge(e.u, e.v, e.w)
	}
	cases := []struct {
		name  string
		g     *graph.Graph
		route string
	}{
		{"karate", graph.KarateClub(), "hybrid"},
		{"ba500", graph.BarabasiAlbert(500, 3, rng.New(3)), "hybrid"},
		{"grid12", grid, "classic"},
		{"sparse-er", graph.ErdosRenyiGNP(150, 0.012, rng.New(10)), "hybrid"}, // disconnected
		{"int-grid", graph.WithIntegerWeights(grid, 1, 10, rng.New(4)), "dial"},
		{"int-ba", graph.WithIntegerWeights(ba, 1, 10, rng.New(5)), "dial"},
		{"frac-ba", graph.WithUniformWeights(ba, 1, 10, rng.New(6)), "calendar"},
		{"float-tie", tie.MustBuild(), "calendar"},
		{"wide-grid", graph.WithIntegerWeights(grid, 1, 200, rng.New(8)), "heap"},
		{"wide-ba", graph.WithUniformWeights(ba, 0.01, 10, rng.New(9)), "heap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, n := tc.g, tc.g.N()
			var p brandes.Pass
			var route string
			if g.Weighted() {
				d := sssp.NewDijkstra(g)
				p, route = d, sssp.DijkstraRoute(d)
			} else {
				b := sssp.NewBFS(g)
				p, route = b, "classic"
				if b.Ordering() != nil {
					route = "hybrid"
				}
			}
			if route != tc.route {
				t.Fatalf("kernel route %s, want %s", route, tc.route)
			}
			c := sssp.NewComputer(g)
			ref := make([]float64, n)
			for s := 0; s < n; s++ {
				brandes.Accumulate(g, c.Run(s), ref)
				got := passDeltas(p, s, n)
				for v, want := range ref {
					if math.Abs(got[v]-want) > 1e-12*want {
						t.Fatalf("source %d: δ(%d) = %v, reference %v", s, v, got[v], want)
					}
				}
			}
		})
	}
}

// TestPassBitIdenticalAcrossKernels pins the pull form's layout
// independence: every sum follows the graph's row order, so the hybrid
// kernel (degree-ordered slots), the classic kernel and a unit-weight
// Dijkstra give the same bits from every source.
func TestPassBitIdenticalAcrossKernels(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"karate", graph.KarateClub()},
		{"ba800", graph.BarabasiAlbert(800, 3, rng.New(21))},
		{"grid15", graph.Grid(15, 15)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, n := tc.g, tc.g.N()
			hy, cl, dj := sssp.NewBFS(g), sssp.NewBFSClassic(g), sssp.NewDijkstra(g)
			for s := 0; s < n; s++ {
				want := passDeltas(cl, s, n)
				assertSameBits(t, fmt.Sprintf("NewBFS, source %d", s), passDeltas(hy, s, n), want)
				assertSameBits(t, fmt.Sprintf("NewDijkstra, source %d", s), passDeltas(dj, s, n), want)
			}
		})
	}
}

// TestPassOverlayReseat runs the pass on kernels reseated across
// chained overlay versions and requires the bits of a fresh kernel on
// each version's compacted CSR.
func TestPassOverlayReseat(t *testing.T) {
	grid := graph.Grid(10, 8)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		mk   func(*graph.Graph) brandes.Pass
	}{
		{"hybrid-ba", graph.BarabasiAlbert(200, 3, rng.New(11)), func(g *graph.Graph) brandes.Pass { return sssp.NewBFS(g) }},
		{"classic-grid", grid, func(g *graph.Graph) brandes.Pass { return sssp.NewBFSClassic(g) }},
		{"dial-grid", graph.WithIntegerWeights(grid, 1, 10, rng.New(12)), func(g *graph.Graph) brandes.Pass { return sssp.NewDijkstra(g) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(5)
			g := tc.g
			kern := tc.mk(g)
			for step := 0; step < 4; step++ {
				next, _, err := graph.ApplyEditsOverlay(g, sssp.EditChain(g, 5, r))
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				switch k := kern.(type) {
				case *sssp.BFS:
					k.Reseat(next)
				case *sssp.Dijkstra:
					k.Reseat(next)
				}
				fresh := tc.mk(next.Compact())
				n := next.N()
				for s := 0; s < n; s += 3 {
					assertSameBits(t, fmt.Sprintf("step %d, source %d", step, s), passDeltas(kern, s, n), passDeltas(fresh, s, n))
				}
				g = next
			}
		})
	}
}

// TestPassSubEpsilonWeight runs the Dijkstra pass on a path whose
// middle edge, 1e-12, is lighter than WeightEps·(1+d): it passes the
// tolerance test in both directions, so only the settle order tells
// the successor. From source 0 the dependencies are [0 2 1 0], on a
// fresh kernel and after passes from other sources alike.
func TestPassSubEpsilonWeight(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(1, 2, 1e-12)
	b.AddWeightedEdge(2, 3, 1)
	d := sssp.NewDijkstra(b.MustBuild())
	want := []float64{0, 2, 1, 0}
	assertSameBits(t, "fresh kernel", passDeltas(d, 0, 4), want)
	for s := 3; s > 0; s-- {
		passDeltas(d, s, 4)
	}
	assertSameBits(t, "after other sources", passDeltas(d, 0, 4), want)
}

// TestPassNonFiniteOnSigmaOverflow runs the pass on a chain of 1,100
// diamonds (the store's σ-overflow fixture up to vertex numbering),
// where σ from an end hub reaches 2^1100: some δ must come out NaN or
// ±Inf, so a caller's finiteness check fires instead of a silently
// wrong value.
func TestPassNonFiniteOnSigmaOverflow(t *testing.T) {
	g := sssp.DiamondChain(1100)
	n := g.N()
	for name, p := range map[string]brandes.Pass{"hybrid": sssp.NewBFS(g), "classic": sssp.NewBFSClassic(g), "dijkstra": sssp.NewDijkstra(g)} {
		nonFinite := 0
		for _, d := range passDeltas(p, 0, n) {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				nonFinite++
			}
		}
		if nonFinite == 0 {
			t.Errorf("%s: every δ from the chain's end is finite", name)
		}
	}
}

// TestPassMatchesBigRational holds the betweenness summed from the
// pass (brandes.BCParallel on an undirected graph) to Brandes in exact
// arithmetic within 1e-15 relative.
func TestPassMatchesBigRational(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"karate", graph.KarateClub()},
		{"grid8", graph.Grid(8, 8)},
		{"ladder", graph.Grid(2, 12)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exact := bigBC(tc.g)
			for _, workers := range []int{1, 3} {
				got := brandes.BCParallel(tc.g, workers)
				for v, want := range exact {
					if math.Abs(got[v]-want) > 1e-15*want {
						t.Fatalf("workers %d: BC(%d) = %v, exact %v", workers, v, got[v], want)
					}
				}
			}
		})
	}
}

// bigBC is Brandes' algorithm in exact arithmetic on an unweighted
// graph: σ as big.Int, δ as big.Rat, normalised as brandes.BC is and
// rounded once to float64.
func bigBC(g *graph.Graph) []float64 {
	n := g.N()
	sum := make([]*big.Rat, n)
	for v := range sum {
		sum[v] = new(big.Rat)
	}
	one := big.NewRat(1, 1)
	for s := 0; s < n; s++ {
		dist := make([]int, n)
		for v := range dist {
			dist[v] = -1
		}
		sigma := make([]*big.Int, n)
		dist[s], sigma[s] = 0, big.NewInt(1)
		order := []int{s}
		for h := 0; h < len(order); h++ {
			u := order[h]
			for _, w := range g.Neighbors(u) {
				if dist[w] < 0 {
					dist[w], sigma[w] = dist[u]+1, new(big.Int)
					order = append(order, w)
				}
				if dist[w] == dist[u]+1 {
					sigma[w].Add(sigma[w], sigma[u])
				}
			}
		}
		delta := make([]*big.Rat, n)
		for i := len(order) - 1; i > 0; i-- {
			u := order[i]
			d := new(big.Rat)
			for _, w := range g.Neighbors(u) {
				if dist[w] == dist[u]+1 {
					term := new(big.Rat).SetFrac(sigma[u], sigma[w])
					d.Add(d, term.Mul(term, new(big.Rat).Add(one, delta[w])))
				}
			}
			delta[u] = d
			sum[u].Add(sum[u], d)
		}
	}
	out := make([]float64, n)
	scale := big.NewRat(1, int64(n)*int64(n-1))
	for v := range out {
		out[v], _ = new(big.Rat).Mul(sum[v], scale).Float64()
	}
	return out
}

func assertSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s: δ(%d) = %v, want %v", what, v, got[v], want[v])
		}
	}
}
