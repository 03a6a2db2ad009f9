package sssp

import (
	"math"
	"testing"
	"testing/quick"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
)

func TestBFSPath(t *testing.T) {
	g := graph.Path(6)
	c := NewComputer(g)
	spd := c.Run(0)
	for v := 0; v < 6; v++ {
		if spd.Dist[v] != float64(v) {
			t.Fatalf("dist[%d] = %v", v, spd.Dist[v])
		}
		if spd.Sigma[v] != 1 {
			t.Fatalf("sigma[%d] = %v", v, spd.Sigma[v])
		}
	}
	if spd.Order[0] != 0 || len(spd.Order) != 6 {
		t.Fatalf("order %v", spd.Order)
	}
}

func TestBFSCycleSigma(t *testing.T) {
	// Even cycle: the antipodal vertex has two shortest paths.
	g := graph.Cycle(8)
	spd := NewComputer(g).Run(0)
	if spd.Dist[4] != 4 || spd.Sigma[4] != 2 {
		t.Fatalf("antipode: dist %v sigma %v", spd.Dist[4], spd.Sigma[4])
	}
	if spd.Sigma[3] != 1 {
		t.Fatalf("sigma[3] = %v", spd.Sigma[3])
	}
}

func TestBFSGridSigma(t *testing.T) {
	// In a grid, σ from corner (0,0) to (r,c) is C(r+c, r).
	g := graph.Grid(4, 4)
	spd := NewComputer(g).Run(0)
	// Vertex (3,3) has id 15, distance 6, sigma C(6,3)=20.
	if spd.Dist[15] != 6 || spd.Sigma[15] != 20 {
		t.Fatalf("corner-to-corner: dist %v sigma %v", spd.Dist[15], spd.Sigma[15])
	}
	// (1,2) id 6: C(3,1)=3.
	if spd.Sigma[6] != 3 {
		t.Fatalf("sigma (1,2) = %v", spd.Sigma[6])
	}
}

func TestBFSUnreachable(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	spd := NewComputer(g).Run(0)
	if spd.Dist[2] != Unreachable || spd.Sigma[2] != 0 {
		t.Fatalf("unreachable: dist %v sigma %v", spd.Dist[2], spd.Sigma[2])
	}
	if len(spd.Order) != 2 {
		t.Fatalf("order %v includes unreachable vertices", spd.Order)
	}
}

func TestOrderNonDecreasing(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, rng.New(1))
	spd := NewComputer(g).Run(17)
	for i := 1; i < len(spd.Order); i++ {
		if spd.Dist[spd.Order[i]] < spd.Dist[spd.Order[i-1]] {
			t.Fatal("order not nondecreasing in distance")
		}
	}
}

func TestRunReusesBuffers(t *testing.T) {
	g := graph.Path(5)
	c := NewComputer(g)
	spd1 := c.Run(0)
	d0 := spd1.Dist[4]
	clone := spd1.Clone()
	_ = c.Run(4) // invalidates spd1
	if clone.Dist[4] != d0 || clone.Source != 0 {
		t.Fatal("clone did not survive rerun")
	}
}

func TestRunPanicsOnBadSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad source did not panic")
		}
	}()
	NewComputer(graph.Path(3)).Run(7)
}

func TestSigmaParentIdentityProperty(t *testing.T) {
	// σ_v = Σ_{u parent of v} σ_u for every reachable v != source.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 5
		g := graph.ErdosRenyiGNP(n, 3/float64(n), rng.New(seed))
		c := NewComputer(g)
		spd := c.Run(0)
		for _, v := range spd.Order {
			if v == 0 {
				continue
			}
			var sum float64
			for _, u := range g.Neighbors(v) {
				if spd.OnShortestPath(u, v, 1) {
					sum += spd.Sigma[u]
				}
			}
			if sum != spd.Sigma[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraMatchesBFSOnUnitWeights(t *testing.T) {
	base := graph.BarabasiAlbert(200, 2, rng.New(3))
	// Same topology, all weights exactly 1 but flagged weighted.
	b := graph.NewBuilder(base.N())
	base.ForEachEdge(func(u, v int, _ float64) { b.AddWeightedEdge(u, v, 1.0000001) })
	// Tiny perturbation keeps it "weighted"; rebuild with exact 1s via
	// a 2-weight trick instead: weight 2 everywhere halves distances.
	b2 := graph.NewBuilder(base.N())
	base.ForEachEdge(func(u, v int, _ float64) { b2.AddWeightedEdge(u, v, 2) })
	wg := b2.MustBuild()
	if !wg.Weighted() {
		t.Fatal("expected weighted graph")
	}
	spdU := NewComputer(base).Run(5)
	spdW := NewComputer(wg).Run(5)
	for v := 0; v < base.N(); v++ {
		if spdU.Dist[v] == Unreachable {
			if spdW.Dist[v] != Unreachable {
				t.Fatal("reachability differs")
			}
			continue
		}
		if math.Abs(spdW.Dist[v]-2*spdU.Dist[v]) > 1e-9 {
			t.Fatalf("dist mismatch at %d: %v vs %v", v, spdW.Dist[v], spdU.Dist[v])
		}
		if spdW.Sigma[v] != spdU.Sigma[v] {
			t.Fatalf("sigma mismatch at %d: %v vs %v", v, spdW.Sigma[v], spdU.Sigma[v])
		}
	}
}

func TestDijkstraHandExample(t *testing.T) {
	//   0 --1-- 1 --1-- 3
	//    \--3-- 2 --1--/   and 1--2 weight 1
	b := graph.NewBuilder(4)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(0, 2, 3)
	b.AddWeightedEdge(1, 3, 1)
	b.AddWeightedEdge(2, 3, 1)
	b.AddWeightedEdge(1, 2, 1)
	g := b.MustBuild()
	spd := NewComputer(g).Run(0)
	want := []float64{0, 1, 2, 2}
	for v, d := range want {
		if math.Abs(spd.Dist[v]-d) > 1e-12 {
			t.Fatalf("dist[%d] = %v want %v", v, spd.Dist[v], d)
		}
	}
	// Vertex 2 reached via 0-1-2 (len 2); direct 0-2 has len 3: sigma 1.
	if spd.Sigma[2] != 1 {
		t.Fatalf("sigma[2] = %v", spd.Sigma[2])
	}
	// Vertex 3: via 0-1-3 (len 2) only; 0-1-2-3 has len 3: sigma 1.
	if spd.Sigma[3] != 1 {
		t.Fatalf("sigma[3] = %v", spd.Sigma[3])
	}
}

func TestDijkstraEqualPathCounting(t *testing.T) {
	// Diamond with weights making both routes tie: 0-1 (1), 0-2 (2),
	// 1-3 (2), 2-3 (1): both 0→3 routes cost 3.
	b := graph.NewBuilder(4)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(0, 2, 2)
	b.AddWeightedEdge(1, 3, 2)
	b.AddWeightedEdge(2, 3, 1)
	g := b.MustBuild()
	spd := NewComputer(g).Run(0)
	if math.Abs(spd.Dist[3]-3) > 1e-12 || spd.Sigma[3] != 2 {
		t.Fatalf("diamond: dist %v sigma %v", spd.Dist[3], spd.Sigma[3])
	}
}

// TestDijkstraAllocFree pins the package-doc contract that repeated
// traversals allocate nothing after warm-up. The settled-marks buffer
// used to be allocated per Run (make([]bool, n) in runDijkstra); it is
// now epoch-stamped and owned by the Computer.
func TestDijkstraAllocFree(t *testing.T) {
	g := graph.WithUniformWeights(graph.BarabasiAlbert(200, 3, rng.New(3)), 1, 10, rng.New(4))
	c := NewComputer(g)
	for s := 0; s < 10; s++ { // warm-up: grow heap/order capacity
		c.Run(s)
	}
	avg := testing.AllocsPerRun(50, func() { c.Run(17) })
	if avg != 0 {
		t.Fatalf("Run allocates %.1f times after warm-up, want 0", avg)
	}
}

// TestDijkstraDoneEpochWrap forces the settled-marks epoch wrap and
// checks the one-time clear keeps σ tie-counting correct (a stale done
// mark would suppress a legitimate σ accumulation).
func TestDijkstraDoneEpochWrap(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(0, 2, 2)
	b.AddWeightedEdge(1, 3, 2)
	b.AddWeightedEdge(2, 3, 1)
	g := b.MustBuild()
	c := NewComputer(g)
	c.Run(0)
	c.doneEpoch = ^uint32(0) // next Run wraps
	for i := 0; i < 3; i++ {
		spd := c.Run(0)
		if math.Abs(spd.Dist[3]-3) > 1e-12 || spd.Sigma[3] != 2 {
			t.Fatalf("after wrap run %d: dist %v sigma %v", i, spd.Dist[3], spd.Sigma[3])
		}
	}
}

// TestDijkstraFloatSummationOrderTie exercises the WeightEps tie
// branches with paths whose exact float sums differ in the last bit:
// route A costs (0.1+0.2)+0.3 = 0.6000000000000001, route B costs
// (0.3+0.2)+0.1 = 0.6. Without the relative tolerance one route would
// be classified as strictly shorter and σ would collapse to 1.
func TestDijkstraFloatSummationOrderTie(t *testing.T) {
	b := graph.NewBuilder(6)
	// Route A: 0 -0.1- 1 -0.2- 2 -0.3- 5
	b.AddWeightedEdge(0, 1, 0.1)
	b.AddWeightedEdge(1, 2, 0.2)
	b.AddWeightedEdge(2, 5, 0.3)
	// Route B: 0 -0.3- 3 -0.2- 4 -0.1- 5
	b.AddWeightedEdge(0, 3, 0.3)
	b.AddWeightedEdge(3, 4, 0.2)
	b.AddWeightedEdge(4, 5, 0.1)
	g := b.MustBuild()
	// Untyped constant arithmetic is exact in Go; force float64 to
	// confirm the fixture really produces last-bit disagreement.
	wa, wb, wc := 0.1, 0.2, 0.3
	if (wa+wb)+wc == (wc+wb)+wa {
		t.Fatal("fixture no longer exercises differing float summation order")
	}
	spd := NewComputer(g).Run(0)
	if spd.Sigma[5] != 2 {
		t.Fatalf("sigma[5] = %v want 2 (both summation orders are ties)", spd.Sigma[5])
	}
	// Both final edges must test as shortest-path DAG edges despite the
	// last-bit disagreement between d(0,2)+0.3 and d(0,4)+0.1.
	if !spd.OnShortestPath(2, 5, 0.3) || !spd.OnShortestPath(4, 5, 0.1) {
		t.Fatal("OnShortestPath rejects a tied route")
	}
	// Both kernel queue routes must agree: the calendar queue (selected
	// for this narrow weight range) and the heap (forced).
	d := NewDijkstra(g)
	if !d.dial {
		t.Fatal("expected the calendar route for weights in [0.1, 0.3]")
	}
	d.Run(0)
	if d.SigmaOf(5) != 2 {
		t.Fatalf("calendar kernel sigma[5] = %v want 2", d.SigmaOf(5))
	}
	d.dial = false
	d.Run(0)
	if d.SigmaOf(5) != 2 {
		t.Fatalf("heap kernel sigma[5] = %v want 2", d.SigmaOf(5))
	}
}

func TestPathCount(t *testing.T) {
	if got := PathCount(graph.Cycle(8), 0, 4); got != 2 {
		t.Fatalf("cycle path count %v", got)
	}
	if got := PathCount(graph.Grid(3, 3), 0, 8); got != 6 {
		t.Fatalf("grid path count %v", got)
	}
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	if got := PathCount(b.MustBuild(), 0, 2); got != 0 {
		t.Fatalf("unreachable path count %v", got)
	}
}

func TestSamplePathValidity(t *testing.T) {
	g := graph.BarabasiAlbert(150, 2, rng.New(7))
	c := NewComputer(g)
	r := rng.New(11)
	spd := c.Run(3)
	for trial := 0; trial < 200; trial++ {
		tgt := r.Intn(g.N())
		if tgt == 3 {
			continue
		}
		p := SamplePath(g, spd, tgt, r)
		if p == nil {
			t.Fatalf("nil path to reachable %d", tgt)
		}
		if p[0] != 3 || p[len(p)-1] != tgt {
			t.Fatalf("endpoints %v", p)
		}
		if float64(len(p)-1) != spd.Dist[tgt] {
			t.Fatalf("length %d != dist %v", len(p)-1, spd.Dist[tgt])
		}
		for i := 1; i < len(p); i++ {
			if !g.HasEdge(p[i-1], p[i]) {
				t.Fatalf("non-edge in path %v", p)
			}
		}
	}
	// Degenerate targets.
	if SamplePath(g, spd, 3, r) != nil {
		t.Fatal("path to source should be nil")
	}
}

func TestSamplePathUniform(t *testing.T) {
	// C4: two shortest paths 0→2 (via 1 and via 3); expect ~50/50.
	g := graph.Cycle(4)
	spd := NewComputer(g).Run(0)
	r := rng.New(13)
	via1 := 0
	const n = 20000
	for i := 0; i < n; i++ {
		p := SamplePath(g, spd, 2, r)
		if p[1] == 1 {
			via1++
		}
	}
	frac := float64(via1) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("path choice fraction %v", frac)
	}
}

func TestSamplePathWeighted(t *testing.T) {
	// Weighted diamond with tied routes (see Dijkstra test): both
	// sampled, endpoints/lengths valid.
	b := graph.NewBuilder(4)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(0, 2, 2)
	b.AddWeightedEdge(1, 3, 2)
	b.AddWeightedEdge(2, 3, 1)
	g := b.MustBuild()
	spd := NewComputer(g).Run(0)
	r := rng.New(17)
	seen := map[int]int{}
	for i := 0; i < 4000; i++ {
		p := SamplePath(g, spd, 3, r)
		if len(p) != 3 {
			t.Fatalf("weighted path %v", p)
		}
		seen[p[1]]++
	}
	if seen[1] == 0 || seen[2] == 0 {
		t.Fatalf("one tied route never sampled: %v", seen)
	}
	ratio := float64(seen[1]) / float64(seen[2])
	if ratio < 0.85 || ratio > 1.18 {
		t.Fatalf("tied routes not ~uniform: %v", seen)
	}
}

func TestBBPathSamplerValidity(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, rng.New(19))
	bb := NewBBPathSampler(g)
	full := NewComputer(g)
	r := rng.New(23)
	for trial := 0; trial < 300; trial++ {
		s := r.Intn(g.N())
		tt := r.Intn(g.N())
		if s == tt {
			continue
		}
		p := bb.Sample(s, tt, r)
		if p == nil {
			t.Fatalf("nil path %d-%d on connected graph", s, tt)
		}
		if p[0] != s || p[len(p)-1] != tt {
			t.Fatalf("endpoints %v want %d..%d", p, s, tt)
		}
		spd := full.Run(s)
		if float64(len(p)-1) != spd.Dist[tt] {
			t.Fatalf("bb path length %d != true dist %v", len(p)-1, spd.Dist[tt])
		}
		for i := 1; i < len(p); i++ {
			if !g.HasEdge(p[i-1], p[i]) {
				t.Fatalf("non-edge in bb path %v", p)
			}
		}
	}
	if bb.EdgesTouched == 0 {
		t.Fatal("EdgesTouched not accounted")
	}
}

func TestBBPathSamplerUniform(t *testing.T) {
	// 3x3 grid corner to corner: 6 shortest paths, each ~1/6.
	g := graph.Grid(3, 3)
	bb := NewBBPathSampler(g)
	r := rng.New(29)
	counts := map[string]int{}
	const n = 60000
	for i := 0; i < n; i++ {
		p := bb.Sample(0, 8, r)
		key := ""
		for _, v := range p {
			key += string(rune('a' + v))
		}
		counts[key]++
	}
	if len(counts) != 6 {
		t.Fatalf("expected 6 distinct paths, got %d: %v", len(counts), counts)
	}
	for k, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-1.0/6.0) > 0.01 {
			t.Fatalf("path %q frequency %v, want ~1/6", k, frac)
		}
	}
}

func TestBBPathSamplerMatchesFullBFSDistribution(t *testing.T) {
	// Cross-check first-step marginals of bb-BFS sampling vs RK-style
	// full-BFS sampling on an even cycle.
	g := graph.Cycle(10)
	bb := NewBBPathSampler(g)
	full := NewComputer(g)
	r := rng.New(31)
	spd := full.Run(0)
	const n = 20000
	bbVia1, fullVia1 := 0, 0
	for i := 0; i < n; i++ {
		if p := bb.Sample(0, 5, r); p[1] == 1 {
			bbVia1++
		}
		if p := SamplePath(g, spd, 5, r); p[1] == 1 {
			fullVia1++
		}
	}
	if math.Abs(float64(bbVia1-fullVia1))/n > 0.02 {
		t.Fatalf("bb=%d full=%d diverge", bbVia1, fullVia1)
	}
}

func TestBBPathSamplerDirectEdge(t *testing.T) {
	g := graph.Complete(5)
	bb := NewBBPathSampler(g)
	p := bb.Sample(1, 3, rng.New(37))
	if len(p) != 2 || p[0] != 1 || p[1] != 3 {
		t.Fatalf("direct edge path %v", p)
	}
}

func TestBBPathSamplerDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	bb := NewBBPathSampler(g)
	if p := bb.Sample(0, 3, rng.New(41)); p != nil {
		t.Fatalf("disconnected pair produced path %v", p)
	}
}

func TestBBPathSamplerPanics(t *testing.T) {
	t.Run("same-endpoint", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("s==t did not panic")
			}
		}()
		NewBBPathSampler(graph.Path(3)).Sample(1, 1, rng.New(1))
	})
	t.Run("weighted", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("weighted graph did not panic")
			}
		}()
		b := graph.NewBuilder(2)
		b.AddWeightedEdge(0, 1, 2)
		NewBBPathSampler(b.MustBuild())
	})
}

func TestBBPathSamplerEpochReuse(t *testing.T) {
	// Many samples on the same sampler must stay correct (epoch
	// stamping, no stale state).
	g := graph.WattsStrogatz(120, 4, 0.1, rng.New(43))
	lc, _, err := graph.LargestComponent(g)
	if err != nil {
		t.Fatal(err)
	}
	bb := NewBBPathSampler(lc)
	full := NewComputer(lc)
	r := rng.New(47)
	for i := 0; i < 500; i++ {
		s, tt := r.Intn(lc.N()), r.Intn(lc.N())
		if s == tt {
			continue
		}
		p := bb.Sample(s, tt, r)
		spd := full.Run(s)
		if p == nil || float64(len(p)-1) != spd.Dist[tt] {
			t.Fatalf("iteration %d: invalid path %v (want dist %v)", i, p, spd.Dist[tt])
		}
	}
}

func BenchmarkBFS(b *testing.B) {
	g := graph.BarabasiAlbert(5000, 3, rng.New(1))
	c := NewComputer(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(i % g.N())
	}
}

func BenchmarkDijkstra(b *testing.B) {
	g := graph.WithUniformWeights(graph.BarabasiAlbert(5000, 3, rng.New(1)), 1, 10, rng.New(2))
	c := NewComputer(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(i % g.N())
	}
}

func BenchmarkBBPathSample(b *testing.B) {
	g := graph.BarabasiAlbert(5000, 3, rng.New(1))
	bb := NewBBPathSampler(g)
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := r.Intn(g.N())
		t := r.Intn(g.N())
		if s == t {
			continue
		}
		bb.Sample(s, t, r)
	}
}

// Clone returns a deep copy of the SPD that survives subsequent Runs.
func (s *SPD) Clone() *SPD {
	return &SPD{
		Source: s.Source,
		Dist:   append([]float64(nil), s.Dist...),
		Sigma:  append([]float64(nil), s.Sigma...),
		Order:  append([]int(nil), s.Order...),
	}
}

// PathCount returns σ_st, the number of shortest paths between s and t
// (0 if t is unreachable). One traversal from s.
func PathCount(g *graph.Graph, s, t int) float64 {
	c := NewComputer(g)
	spd := c.Run(s)
	if spd.Dist[t] == Unreachable {
		return 0
	}
	return spd.Sigma[t]
}
