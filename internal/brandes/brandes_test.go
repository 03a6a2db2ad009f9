package brandes

import (
	"context"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
	"bcmh/internal/sssp"
)

// naiveBC is an independent O(n³) reference: σ_st from per-source SPDs,
// σ_st(v) = σ_sv·σ_vt when d(s,v)+d(v,t) = d(s,t). Works for weighted
// graphs too (tolerant distance comparison).
func naiveBC(g *graph.Graph) []float64 {
	n := g.N()
	dist := make([][]float64, n)
	sigma := make([][]float64, n)
	c := sssp.NewComputer(g)
	for s := 0; s < n; s++ {
		spd := c.Run(s)
		dist[s] = append([]float64(nil), spd.Dist...)
		sigma[s] = append([]float64(nil), spd.Sigma...)
	}
	bc := make([]float64, n)
	const eps = 1e-9
	for v := 0; v < n; v++ {
		var sum float64
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
					sum += sigma[s][v] * sigma[v][t] / sigma[s][t]
				}
			}
		}
		bc[v] = sum / (float64(n) * float64(n-1))
	}
	return bc
}

func maxDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestBCPath(t *testing.T) {
	// P5: BC(i) = 2·i·(4-i)/20.
	bc := BC(graph.Path(5))
	want := []float64{0, 6.0 / 20, 8.0 / 20, 6.0 / 20, 0}
	for i := range want {
		if math.Abs(bc[i]-want[i]) > 1e-12 {
			t.Fatalf("P5 bc %v want %v", bc, want)
		}
	}
}

func TestBCStar(t *testing.T) {
	// Star on n: center (n-2)/n, leaves 0.
	n := 9
	bc := BC(graph.Star(n))
	if math.Abs(bc[0]-float64(n-2)/float64(n)) > 1e-12 {
		t.Fatalf("star center %v", bc[0])
	}
	for v := 1; v < n; v++ {
		if bc[v] != 0 {
			t.Fatalf("leaf %d bc %v", v, bc[v])
		}
	}
}

func TestBCComplete(t *testing.T) {
	for _, v := range BC(graph.Complete(7)) {
		if v != 0 {
			t.Fatal("complete graph should have zero betweenness")
		}
	}
}

func TestBCMatchesNaive(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Cycle(9),
		graph.Grid(4, 5),
		graph.Wheel(8),
		graph.KarateClub(),
		graph.Barbell(4, 5, 2),
		graph.StarOfCliques(3, 4),
	}
	for i, g := range graphs {
		if d := maxDiff(BC(g), naiveBC(g)); d > 1e-10 {
			t.Fatalf("graph %d: Brandes vs naive diff %v", i, d)
		}
	}
}

func TestBCMatchesNaiveProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 5
		g := graph.ErdosRenyiGNP(n, 4/float64(n), rng.New(seed))
		return maxDiff(BC(g), naiveBC(g)) <= 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBCWeightedMatchesNaive(t *testing.T) {
	g := graph.WithUniformWeights(graph.ErdosRenyiGNP(30, 0.15, rng.New(5)), 1, 10, rng.New(7))
	if d := maxDiff(BC(g), naiveBC(g)); d > 1e-9 {
		t.Fatalf("weighted Brandes vs naive diff %v", d)
	}
}

func TestBCWeightedUnitEqualsUnweighted(t *testing.T) {
	base := graph.KarateClub()
	b := graph.NewBuilder(base.N())
	base.ForEachEdge(func(u, v int, _ float64) { b.AddWeightedEdge(u, v, 2) })
	wg := b.MustBuild()
	if d := maxDiff(BC(base), BC(wg)); d > 1e-10 {
		t.Fatalf("uniform-weight BC differs from unweighted: %v", d)
	}
}

func TestBCParallelMatchesSerial(t *testing.T) {
	g := graph.BarabasiAlbert(400, 3, rng.New(11))
	serial := BC(g)
	for _, workers := range []int{1, 2, 4, 7} {
		par := BCParallel(g, workers)
		if d := maxDiff(serial, par); d > 1e-12 {
			t.Fatalf("workers=%d diff %v", workers, d)
		}
	}
	// Default worker count path.
	if d := maxDiff(serial, BCParallel(g, 0)); d > 1e-12 {
		t.Fatalf("default workers diff %v", d)
	}
}

func TestBCParallelDeterministic(t *testing.T) {
	g := graph.WattsStrogatz(300, 6, 0.2, rng.New(13))
	a := BCParallel(g, 4)
	b := BCParallel(g, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("parallel BC not bit-deterministic across runs")
		}
	}
}

func TestBCSymmetryOnVertexTransitiveGraphs(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Cycle(10), graph.Complete(6)} {
		bc := BC(g)
		for v := 1; v < g.N(); v++ {
			if math.Abs(bc[v]-bc[0]) > 1e-12 {
				t.Fatalf("vertex-transitive graph has non-constant BC: %v", bc)
			}
		}
	}
}

func TestDependenciesStar(t *testing.T) {
	// Star center 0, n=6: δ_leaf•(0) counts the other 4 leaves.
	g := graph.Star(6)
	c := sssp.NewComputer(g)
	dep := Dependencies(c, 1)
	if dep[0] != 4 {
		t.Fatalf("δ_1•(0) = %v want 4", dep[0])
	}
	for v := 2; v < 6; v++ {
		if dep[v] != 0 {
			t.Fatalf("δ_1•(%d) = %v want 0", v, dep[v])
		}
	}
	if dep[1] != 0 {
		t.Fatal("self dependency must be 0")
	}
}

func TestDependenciesSumIdentity(t *testing.T) {
	// Σ_v δ_s•(v) over sources s equals n(n-1)·BC summed appropriately:
	// per-source, Σ_v δ_s•(v) = Σ_t (number of interior vertices on
	// s→t geodesics weighted) — cross-check against naive pairwise sum.
	g := graph.KarateClub()
	c := sssp.NewComputer(g)
	bc := BC(g)
	n := g.N()
	acc := make([]float64, n)
	for s := 0; s < n; s++ {
		dep := Dependencies(c, s)
		for v := 0; v < n; v++ {
			acc[v] += dep[v]
		}
	}
	for v := 0; v < n; v++ {
		if math.Abs(acc[v]/(float64(n)*float64(n-1))-bc[v]) > 1e-10 {
			t.Fatalf("dependency sum identity broken at %d", v)
		}
	}
}

func TestDependencyOnTarget(t *testing.T) {
	g := graph.Path(5)
	c := sssp.NewComputer(g)
	scratch := make([]float64, 5)
	// On P5, δ_0•(2) = #targets beyond 2 from 0 = 2 (vertices 3,4).
	if got := DependencyOnTarget(c, scratch, 0, 2); got != 2 {
		t.Fatalf("δ_0•(2) = %v", got)
	}
	if got := DependencyOnTarget(c, scratch, 0, 4); got != 0 {
		t.Fatalf("δ_0•(4) = %v (endpoint carries nothing)", got)
	}
}

func TestDependencyVector(t *testing.T) {
	g := graph.Star(6)
	dep := DependencyVector(g, 0)
	// Every leaf has dependency 4 on the center.
	for v := 1; v < 6; v++ {
		if dep[v] != 4 {
			t.Fatalf("dep[%d] = %v", v, dep[v])
		}
	}
	if dep[0] != 0 {
		t.Fatal("center's own entry must be 0")
	}
	// Parallel agrees with serial.
	depP, err := DependencyVectorParallelContext(context.Background(), g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := range dep {
		if dep[v] != depP[v] {
			t.Fatal("parallel dependency vector differs")
		}
	}
}

func TestBCOfVertexExactMatchesBC(t *testing.T) {
	g := graph.KarateClub()
	bc := BC(g)
	for _, r := range []int{0, 5, 16, 33} {
		if math.Abs(BCOfVertexExact(g, r)-bc[r]) > 1e-10 {
			t.Fatalf("single-vertex exact differs at %d", r)
		}
	}
}

func TestEdgeBCPath(t *testing.T) {
	// P3: both edges carry 2 unordered pairs each.
	ebc, err := EdgeBC(graph.Path(3))
	if err != nil {
		t.Fatal(err)
	}
	if ebc[EdgeKey(0, 1)] != 2 || ebc[EdgeKey(1, 2)] != 2 {
		t.Fatalf("P3 edge bc %v", ebc)
	}
}

func TestEdgeBCStar(t *testing.T) {
	// Star n=5: each spoke carries its leaf's pairs: to 3 other leaves
	// + to center = 4... pairs through edge (0,i): {i,j} for j≠i (3
	// leaf pairs) + {i,0} (1) = 4.
	ebc, err := EdgeBC(graph.Star(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		if ebc[EdgeKey(0, i)] != 4 {
			t.Fatalf("star spoke bc %v", ebc)
		}
	}
}

func TestEdgeBCBridge(t *testing.T) {
	// Barbell(3,3,0): the bridge edge carries all 9 cross pairs.
	g := graph.Barbell(3, 3, 0)
	ebc, err := EdgeBC(g)
	if err != nil {
		t.Fatal(err)
	}
	bridge := ebc[EdgeKey(2, 3)]
	for k, v := range ebc {
		if k != EdgeKey(2, 3) && v >= bridge {
			t.Fatalf("bridge %v not strictly maximal (%v=%v)", bridge, k, v)
		}
	}
	if bridge < 9 {
		t.Fatalf("bridge bc %v, want >= 9", bridge)
	}
}

func TestEdgeBCTotalIdentity(t *testing.T) {
	// Σ_edges ebc(e) = Σ_{unordered pairs s,t} avg path length... each
	// unordered pair {s,t} contributes d(s,t) (its paths cross d(s,t)
	// edges, weight split across paths sums to d). Verify on a tree
	// where σ=1 everywhere.
	g := graph.KaryTree(15, 2)
	ebc, err := EdgeBC(g)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range ebc {
		total += v
	}
	// Sum of pairwise distances (unordered) on the tree.
	var wantTotal float64
	dist := make([]int, g.N())
	for s := 0; s < g.N(); s++ {
		graph.BFSDistances(g, s, dist)
		for tt := s + 1; tt < g.N(); tt++ {
			wantTotal += float64(dist[tt])
		}
	}
	if math.Abs(total-wantTotal) > 1e-9 {
		t.Fatalf("edge bc total %v want %v", total, wantTotal)
	}
}

func TestEdgeBCDirectedRejected(t *testing.T) {
	b := graph.NewDirectedBuilder(3)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	if _, err := EdgeBC(g); err == nil {
		t.Fatal("directed graph accepted")
	}
}

func TestGroupBCStarCenter(t *testing.T) {
	g := graph.Star(7)
	got, err := GroupBC(g, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("group {center} bc %v want 1", got)
	}
}

func TestGroupBCSingletonRelation(t *testing.T) {
	// GBC({v}) = BC(v)·n/(n-2) (normalisation difference: pairs
	// involving v are excluded from the group denominator).
	g := graph.KarateClub()
	bc := BC(g)
	n := float64(g.N())
	for _, v := range []int{0, 2, 33, 8} {
		got, err := GroupBC(g, []int{v})
		if err != nil {
			t.Fatal(err)
		}
		want := bc[v] * n / (n - 2)
		if math.Abs(got-want) > 1e-10 {
			t.Fatalf("GBC({%d}) = %v want %v", v, got, want)
		}
	}
}

func TestGroupBCMonotone(t *testing.T) {
	// Adding a vertex to a group cannot decrease the raw covered-path
	// count; with the pair-set shrinking the normalised value can move
	// either way, so test the clean case: supersets on a path cover at
	// least as many of the remaining pairs.
	g := graph.Path(6)
	a, err := GroupBC(g, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GroupBC(g, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if b < a-1e-12 {
		t.Fatalf("group {2,3}=%v < {2}=%v on path", b, a)
	}
}

func TestGroupBCComplete(t *testing.T) {
	got, err := GroupBC(graph.Complete(6), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("complete graph group bc %v", got)
	}
}

func TestGroupBCErrors(t *testing.T) {
	g := graph.Path(4)
	if _, err := GroupBC(g, []int{9}); err == nil {
		t.Fatal("out-of-range member accepted")
	}
	if _, err := GroupBC(g, []int{1, 1}); err == nil {
		t.Fatal("duplicate member accepted")
	}
	// Degenerate: fewer than 2 outside vertices.
	if v, err := GroupBC(g, []int{0, 1, 2}); err != nil || v != 0 {
		t.Fatalf("degenerate group: %v %v", v, err)
	}
}

func TestAccumulatePanicsOnBadLength(t *testing.T) {
	g := graph.Path(3)
	c := sssp.NewComputer(g)
	spd := c.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("bad delta length did not panic")
		}
	}()
	Accumulate(g, spd, make([]float64, 2))
}

func BenchmarkBCKarate(b *testing.B) {
	g := graph.KarateClub()
	for i := 0; i < b.N; i++ {
		BC(g)
	}
}

func BenchmarkBC2000(b *testing.B) {
	g := graph.BarabasiAlbert(2000, 3, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BC(g)
	}
}

func BenchmarkBCParallel2000(b *testing.B) {
	g := graph.BarabasiAlbert(2000, 3, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BCParallel(g, 0)
	}
}

func BenchmarkDependencyOnTarget(b *testing.B) {
	g := graph.BarabasiAlbert(5000, 3, rng.New(1))
	c := sssp.NewComputer(g)
	scratch := make([]float64, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DependencyOnTarget(c, scratch, i%g.N(), 0)
	}
}

// BenchmarkDependencyOnTargetIdentity is the fast-oracle counterpart of
// BenchmarkDependencyOnTarget: same workload, identity route (one
// specialized BFS + O(n) scan against a prebuilt target snapshot).
func BenchmarkDependencyOnTargetIdentity(b *testing.B) {
	g := graph.BarabasiAlbert(5000, 3, rng.New(1))
	vb := sssp.NewBFS(g)
	ts := sssp.NewTargetSPD(vb, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i % g.N()
		vb.Run(v)
		DependencyOnTargetIdentity(vb, ts, v)
	}
}

// Dependencies returns δ_source•(·) as a fresh slice, running one
// traversal + accumulation on c.
func Dependencies(c *sssp.Computer, source int) []float64 {
	spd := c.Run(source)
	delta := make([]float64, c.Graph().N())
	Accumulate(c.Graph(), spd, delta)
	return delta
}

// GroupBC computes the group betweenness centrality of set (Everett &
// Borgatti [15]): the normalised fraction of shortest paths between
// pairs outside the set that pass through at least one member. Computed
// exactly in O(nm) by counting, per source, the shortest paths that
// avoid the set (a DP over the SPD) and subtracting.
func GroupBC(g *graph.Graph, set []int) (float64, error) {
	n := g.N()
	inSet := make([]bool, n)
	for _, v := range set {
		if v < 0 || v >= n {
			return 0, fmt.Errorf("brandes: GroupBC vertex %d out of range", v)
		}
		if inSet[v] {
			return 0, fmt.Errorf("brandes: GroupBC vertex %d repeated", v)
		}
		inSet[v] = true
	}
	outside := n - len(set)
	if outside < 2 {
		return 0, nil
	}
	c := sssp.NewComputer(g)
	avoid := make([]float64, n) // σ̃: shortest paths from s avoiding the set
	var total float64
	for s := 0; s < n; s++ {
		if inSet[s] {
			continue
		}
		spd := c.Run(s)
		for i := range avoid {
			avoid[i] = 0
		}
		avoid[s] = 1
		// Forward DP in distance order: σ̃_v = Σ_{parents u} σ̃_u,
		// zeroed at set members.
		for _, v := range spd.Order {
			if v == s {
				continue
			}
			if inSet[v] {
				avoid[v] = 0
				continue
			}
			ns := g.Neighbors(v)
			ws := g.NeighborWeights(v)
			var sum float64
			for j, u := range ns {
				wt := 1.0
				if ws != nil {
					wt = ws[j]
				}
				if spd.OnShortestPath(u, v, wt) {
					sum += avoid[u]
				}
			}
			avoid[v] = sum
		}
		for t := 0; t < n; t++ {
			if t == s || inSet[t] || spd.Sigma[t] == 0 {
				continue
			}
			total += 1 - avoid[t]/spd.Sigma[t]
		}
	}
	return total / (float64(outside) * float64(outside-1)), nil
}
