package sssp

import (
	"math"
	"testing"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
)

// checkDijkstraAgainstComputer verifies one kernel run against the
// reference Computer traversal from the same source: identical
// reachability, distances (within WeightEps), σ counts, and a
// non-decreasing settle order.
func checkDijkstraAgainstComputer(t *testing.T, g *graph.Graph, d *Dijkstra, source int) {
	t.Helper()
	ref := NewComputer(g).Run(source)
	d.Run(source)
	n := g.N()
	reached := 0
	for v := 0; v < n; v++ {
		if ref.Dist[v] == Unreachable {
			if d.Reached(v) {
				t.Fatalf("source %d: vertex %d reached by kernel, unreachable by reference", source, v)
			}
			continue
		}
		reached++
		if !d.Reached(v) {
			t.Fatalf("source %d: vertex %d unreached by kernel", source, v)
		}
		if math.Abs(d.DistOf(v)-ref.Dist[v]) > WeightEps*(1+math.Abs(ref.Dist[v])) {
			t.Fatalf("source %d: dist[%d] = %v want %v", source, v, d.DistOf(v), ref.Dist[v])
		}
		if d.SigmaOf(v) != ref.Sigma[v] {
			t.Fatalf("source %d: sigma[%d] = %v want %v", source, v, d.SigmaOf(v), ref.Sigma[v])
		}
	}
	order := d.Order()
	if len(order) != reached {
		t.Fatalf("source %d: order has %d vertices, %d reached", source, len(order), reached)
	}
	if int(order[0]) != source {
		t.Fatalf("source %d: order starts at %d", source, order[0])
	}
	// The calendar route settles a bucket's entries in FIFO order, so
	// Order is non-decreasing only up to one bucket width there.
	slack := WeightEps
	if d.dial {
		slack += d.delta
	}
	prev := 0.0
	for _, v := range order {
		dv := d.DistOf(int(v))
		if dv < prev-slack*(1+math.Abs(prev)) {
			t.Fatalf("source %d: order not by non-decreasing distance", source)
		}
		prev = dv
	}
}

// weightedFromEdges builds an undirected graph from (u, v, w) triples.
func weightedFromEdges(t testing.TB, n int, edges [][3]float64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddWeightedEdge(int(e[0]), int(e[1]), e[2])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// weightedTestGraphs covers every kernel route: narrow-range float
// weights (calendar queue), small integer weights (Dial bucket ring),
// an integral weight range too wide for either bucket route (heap), a
// wide-ratio float range (heap), and an unweighted graph (Dial at unit
// weights).
func weightedTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	intW := weightedFromEdges(t, 8, [][3]float64{
		{0, 1, 2}, {0, 2, 5}, {1, 2, 3}, {1, 3, 7}, {2, 4, 1},
		{3, 4, 2}, {4, 5, 4}, {3, 5, 6},
		// 6-7 separate component
		{6, 7, 3},
	})
	bigW := weightedFromEdges(t, 4, [][3]float64{
		{0, 1, 100}, {1, 2, 100}, {0, 2, 200}, {2, 3, 1},
	})
	return map[string]*graph.Graph{
		"float-ba":   graph.WithUniformWeights(graph.BarabasiAlbert(120, 3, rng.New(7)), 1, 10, rng.New(8)),
		"float-er":   graph.WithUniformWeights(graph.ErdosRenyiGNP(60, 0.08, rng.New(9)), 0.5, 4, rng.New(10)),
		"float-grid": graph.WithUniformWeights(graph.Grid(6, 7), 1, 3, rng.New(11)),
		"float-wide": graph.WithUniformWeights(graph.BarabasiAlbert(100, 2, rng.New(13)), 0.01, 10, rng.New(14)),
		"int-hand":   intW,
		"int-big":    bigW, // weight 100 > dialMaxWeight, ratio 200 > dialMaxRatio: heap route
		"unweighted": graph.KarateClub(),
	}
}

func TestDijkstraMatchesComputer(t *testing.T) {
	for name, g := range weightedTestGraphs(t) {
		d := NewDijkstra(g)
		for s := 0; s < g.N(); s++ {
			checkDijkstraAgainstComputer(t, g, d, s)
		}
		_ = name
	}
}

// TestDijkstraRouteSelection pins which queue each fixture gets: the
// exact Dial ring for integral weights within dialMaxWeight, the
// calendar queue for float weights within dialMaxRatio of spread, the
// heap for everything else.
func TestDijkstraRouteSelection(t *testing.T) {
	gs := weightedTestGraphs(t)
	wantDial := map[string]bool{
		"float-ba": true, "float-er": true, "float-grid": true,
		"float-wide": false, "int-hand": true, "int-big": false,
		"unweighted": true,
	}
	for name, want := range wantDial {
		d := NewDijkstra(gs[name])
		if d.dial != want {
			t.Errorf("%s: dial = %v want %v", name, d.dial, want)
		}
		if name == "int-hand" || name == "unweighted" {
			if d.delta != 1 {
				t.Errorf("%s: delta = %v want exactly 1", name, d.delta)
			}
		}
	}
}

// TestDijkstraEpochReuse runs the kernel thousands of times from
// varying sources on one instance: any stale state leaking across
// epochs would corrupt some later run.
func TestDijkstraEpochReuse(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.WithUniformWeights(graph.BarabasiAlbert(80, 2, rng.New(11)), 1, 10, rng.New(12)),
		graph.WithIntegerWeights(graph.BarabasiAlbert(80, 2, rng.New(11)), 1, 9, rng.New(13)),
	} {
		d := NewDijkstra(g)
		for i := 0; i < 3000; i++ {
			s := i % g.N()
			d.Run(s)
			if d.DistOf(s) != 0 || d.SigmaOf(s) != 1 {
				t.Fatalf("run %d: source state wrong", i)
			}
		}
		checkDijkstraAgainstComputer(t, g, d, 5)
	}
}

// TestDijkstraEpochWrap forces the 2^32 epoch wrap and checks the
// one-time clear keeps results correct on both queue routes.
func TestDijkstraEpochWrap(t *testing.T) {
	gs := weightedTestGraphs(t)
	for _, name := range []string{"int-hand", "float-grid"} {
		d := NewDijkstra(gs[name])
		d.Run(0)
		d.epoch = ^uint32(0) // next Run wraps
		checkDijkstraAgainstComputer(t, gs[name], d, 1)
		checkDijkstraAgainstComputer(t, gs[name], d, 2)
	}
}

func TestDijkstraDirectedPanics(t *testing.T) {
	b := graph.NewDirectedBuilder(2)
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewDijkstra accepted a directed graph")
		}
	}()
	NewDijkstra(g)
}

func TestDijkstraSourceRangePanics(t *testing.T) {
	d := NewDijkstra(graph.Path(4))
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted an out-of-range source")
		}
	}()
	d.Run(4)
}

// TestDijkstraUnitWeightBitIdenticalToBFS is the randomized cross-check
// from the issue: on an unweighted graph the Dijkstra kernel must be
// bit-identical to the BFS kernel — same reachability, exactly equal
// distances and σ (integers represented exactly in float64), and the
// same settle order, because the Dial ring at unit weights degenerates
// to the BFS queue.
func TestDijkstraUnitWeightBitIdenticalToBFS(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		n := 30 + int(r.Float64()*120)
		p := 0.02 + r.Float64()*0.08
		g := graph.ErdosRenyiGNP(n, p, rng.New(uint64(trial)*7+1))
		d := NewDijkstra(g)
		b := NewBFSClassic(g) // order pin below wants the classic queue order
		for s := 0; s < g.N(); s += 3 {
			d.Run(s)
			b.Run(s)
			for v := 0; v < n; v++ {
				if d.Reached(v) != b.Reached(v) {
					t.Fatalf("trial %d source %d: reached[%d] mismatch", trial, s, v)
				}
				if !b.Reached(v) {
					continue
				}
				if d.DistOf(v) != float64(b.DistOf(v)) {
					t.Fatalf("trial %d source %d: dist[%d] = %v want %d", trial, s, v, d.DistOf(v), b.DistOf(v))
				}
				if d.SigmaOf(v) != b.SigmaOf(v) {
					t.Fatalf("trial %d source %d: sigma[%d] = %v want %v", trial, s, v, d.SigmaOf(v), b.SigmaOf(v))
				}
			}
			do, bo := d.Order(), b.Order()
			if len(do) != len(bo) {
				t.Fatalf("trial %d source %d: order length %d want %d", trial, s, len(do), len(bo))
			}
			for i := range do {
				if do[i] != bo[i] {
					t.Fatalf("trial %d source %d: order[%d] = %d want %d", trial, s, i, do[i], bo[i])
				}
			}
		}
	}
}

func TestWeightedTargetSPDSnapshot(t *testing.T) {
	// Two components: 0-1-2 weighted path plus 3-4 edge.
	g := weightedFromEdges(t, 5, [][3]float64{
		{0, 1, 2.5}, {1, 2, 1.5}, {3, 4, 7},
	})
	d := NewDijkstra(g)
	ts := NewWeightedTargetSPD(d, 1)
	if ts.Target != 1 {
		t.Fatalf("target %d", ts.Target)
	}
	wantDist := []float64{2.5, 0, 1.5, Unreachable, Unreachable}
	for v, want := range wantDist {
		if ts.Dist[v] != want {
			t.Fatalf("dist[%d] = %v want %v", v, ts.Dist[v], want)
		}
	}
	if ts.Sigma[0] != 1 || ts.Sigma[1] != 1 || ts.Sigma[2] != 1 {
		t.Fatalf("sigma %v", ts.Sigma)
	}
	// The snapshot must survive later runs of d.
	d.Run(3)
	if ts.Dist[0] != 2.5 || ts.Dist[3] != Unreachable {
		t.Fatal("snapshot mutated by a later run")
	}
}

// TestDijkstraKernelAllocFree pins the lazy-reset contract: after
// warm-up, Run allocates nothing on either queue route.
func TestDijkstraKernelAllocFree(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.WithUniformWeights(graph.BarabasiAlbert(200, 3, rng.New(3)), 1, 10, rng.New(4)),
		graph.WithIntegerWeights(graph.BarabasiAlbert(200, 3, rng.New(3)), 1, 9, rng.New(5)),
	} {
		d := NewDijkstra(g)
		for s := 0; s < 10; s++ { // warm-up: grow heap/bucket capacity
			d.Run(s)
		}
		avg := testing.AllocsPerRun(50, func() { d.Run(17) })
		if avg != 0 {
			t.Fatalf("Run allocates %.1f times after warm-up, want 0", avg)
		}
	}
}

func BenchmarkDijkstraKernel(b *testing.B) {
	g := graph.WithUniformWeights(graph.BarabasiAlbert(2000, 3, rng.New(1)), 1, 10, rng.New(2))
	k := NewDijkstra(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Run(i % g.N())
	}
}

func BenchmarkComputerDijkstra(b *testing.B) {
	g := graph.WithUniformWeights(graph.BarabasiAlbert(2000, 3, rng.New(1)), 1, 10, rng.New(2))
	c := NewComputer(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(i % g.N())
	}
}

func BenchmarkDijkstraKernelDial(b *testing.B) {
	g := graph.WithIntegerWeights(graph.BarabasiAlbert(2000, 3, rng.New(1)), 1, 9, rng.New(2))
	k := NewDijkstra(g)
	if !k.dial {
		b.Fatal("expected Dial route")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Run(i % g.N())
	}
}

// Order returns the vertices settled by the latest Run in
// non-decreasing distance order, source first.
func (d *Dijkstra) Order() []int32 { return d.order }
