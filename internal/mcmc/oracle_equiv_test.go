package mcmc

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"bcmh/internal/brandes"
	"bcmh/internal/graph"
	"bcmh/internal/rng"
	"bcmh/internal/sssp"
)

// equivGraphs spans the structural regimes the fast oracle must match
// the Brandes reference on: scale-free, homogeneous random (largest
// component), high-diameter grid, the degenerate star, and karate.
func equivGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	er := graph.ErdosRenyiGNP(90, 0.06, rng.New(41))
	lc, _, err := graph.LargestComponent(er)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"ba":     graph.BarabasiAlbert(150, 3, rng.New(40)),
		"er":     lc,
		"grid":   graph.Grid(9, 10),
		"star":   graph.Star(40),
		"karate": graph.KarateClub(),
	}
}

// equivGraphsWeighted is the weighted mirror of equivGraphs: the same
// structural regimes with positive float weights, spanning both
// Dijkstra kernel routes (narrow weight ranges take the calendar
// queue, the wide-range ER fixture forces the 4-ary heap).
func equivGraphsWeighted(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	er := graph.ErdosRenyiGNP(90, 0.06, rng.New(41))
	lc, _, err := graph.LargestComponent(er)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"wba":     graph.WithUniformWeights(graph.BarabasiAlbert(150, 3, rng.New(40)), 1, 10, rng.New(140)),
		"wer":     graph.WithUniformWeights(lc, 0.01, 10, rng.New(141)), // ratio > 64 → heap route
		"wgrid":   graph.WithUniformWeights(graph.Grid(9, 10), 1, 3, rng.New(142)),
		"wkarate": graph.WithUniformWeights(graph.KarateClub(), 1, 9, rng.New(143)),
	}
}

// TestFastOracleMatchesReference checks δ_v•(r) from the identity fast
// path against brandes.DependencyOnTarget for every vertex v, over
// several targets per graph, within 1e-9 relative tolerance (the two
// routes sum the same terms in different orders).
func TestFastOracleMatchesReference(t *testing.T) {
	for name, g := range equivGraphs(t) {
		if routeFor(g) != routeBFSIdentity {
			t.Fatalf("%s: test graph should take the BFS identity route", name)
		}
		n := g.N()
		c := sssp.NewComputer(g)
		scratch := make([]float64, n)
		targets := []int{0, 1, n / 2, n - 1}
		for _, r := range targets {
			fast, err := NewOracle(g, r)
			if err != nil {
				t.Fatal(err)
			}
			if fast.bfs == nil {
				t.Fatalf("%s: oracle took the Brandes route", name)
			}
			for v := 0; v < n; v++ {
				got := fast.Dep(v)
				want := brandes.DependencyOnTarget(c, scratch, v, r)
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("%s target %d: δ_%d = %v fast vs %v reference", name, r, v, got, want)
				}
			}
		}
	}
}

// TestWeightedFastOracleMatchesReference is the weighted analog: the
// Dijkstra identity route against the reference Brandes evaluator on
// weighted BA/ER/grid/karate, every vertex, several targets, ≤1e-9
// relative tolerance.
func TestWeightedFastOracleMatchesReference(t *testing.T) {
	for name, g := range equivGraphsWeighted(t) {
		if routeFor(g) != routeDijkstraIdentity {
			t.Fatalf("%s: test graph should take the Dijkstra identity route", name)
		}
		n := g.N()
		c := sssp.NewComputer(g)
		scratch := make([]float64, n)
		targets := []int{0, 1, n / 2, n - 1}
		for _, r := range targets {
			fast, err := NewOracle(g, r)
			if err != nil {
				t.Fatal(err)
			}
			if fast.dij == nil {
				t.Fatalf("%s: oracle missed the Dijkstra route", name)
			}
			for v := 0; v < n; v++ {
				got := fast.Dep(v)
				want := brandes.DependencyOnTarget(c, scratch, v, r)
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("%s target %d: δ_%d = %v fast vs %v reference", name, r, v, got, want)
				}
			}
		}
	}
}

// TestFastOracleMatchesDependencyVector cross-checks the column used by
// MuExact (DependencyVectorParallel's identity route) against per-vertex
// reference evaluations.
func TestFastOracleMatchesDependencyVector(t *testing.T) {
	g := graph.BarabasiAlbert(120, 2, rng.New(43))
	c := sssp.NewComputer(g)
	scratch := make([]float64, g.N())
	for _, r := range []int{0, 7, 119} {
		col := brandes.DependencyVector(g, r)
		for v := 0; v < g.N(); v++ {
			want := brandes.DependencyOnTarget(c, scratch, v, r)
			if math.Abs(col[v]-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("target %d: column[%d] = %v want %v", r, v, col[v], want)
			}
		}
	}
}

// TestSetOracleFastMatchesReference checks the joint-space oracle's
// identity routes (BFS and Dijkstra) against the Brandes accumulation
// route.
func TestSetOracleFastMatchesReference(t *testing.T) {
	gs := map[string]*graph.Graph{
		"unweighted": graph.BarabasiAlbert(100, 3, rng.New(47)),
		"weighted":   graph.WithUniformWeights(graph.BarabasiAlbert(100, 3, rng.New(47)), 1, 8, rng.New(48)),
	}
	for name, g := range gs {
		R := []int{0, 3, 17, 50, 99}
		fast, err := NewSetOracle(g, R, true)
		if err != nil {
			t.Fatal(err)
		}
		if fast.bfs == nil && fast.dij == nil {
			t.Fatalf("%s: set oracle took the Brandes route", name)
		}
		c := sssp.NewComputer(g)
		delta := make([]float64, g.N())
		for v := 0; v < g.N(); v++ {
			got := fast.Deps(v)
			spd := c.Run(v)
			brandes.Accumulate(g, spd, delta)
			for i, r := range R {
				if math.Abs(got[i]-delta[r]) > 1e-9*(1+math.Abs(delta[r])) {
					t.Fatalf("%s v=%d target %d: %v fast vs %v reference", name, v, r, got[i], delta[r])
				}
			}
		}
	}
}

// TestOracleRouteSelection pins the selection rule: unweighted
// undirected graphs take the BFS identity route, weighted undirected
// graphs the Dijkstra identity route, and only directed graphs fall
// back to Brandes.
func TestOracleRouteSelection(t *testing.T) {
	w := graph.WithUniformWeights(graph.KarateClub(), 1, 9, rng.New(51))
	o, err := NewOracle(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if o.dij == nil || o.bfs != nil {
		t.Fatal("weighted undirected graph must take the Dijkstra identity route")
	}
	b := graph.NewDirectedBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	dg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	od, err := NewOracle(dg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if od.bfs != nil || od.dij != nil || od.c == nil {
		t.Fatal("directed graph must take the Brandes route")
	}
	so, err := NewSetOracle(w, []int{0, 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if so.dij == nil || so.bfs != nil {
		t.Fatal("weighted set oracle must take the Dijkstra identity route")
	}
	if len(so.wtspds) != 2 {
		t.Fatalf("weighted set oracle built %d snapshots, want 2", len(so.wtspds))
	}
}

// TestSetOracleRetargetInvalidatesMemo is the regression test for the
// stale-memo bug: the memo stamp used to be binary (set once, never
// reset), so a set oracle reused for a new target set would serve the
// previous set's dependency vectors. Retarget must invalidate every
// memoised row.
func TestSetOracleRetargetInvalidatesMemo(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"unweighted": graph.BarabasiAlbert(80, 3, rng.New(53)),
		"weighted":   graph.WithUniformWeights(graph.BarabasiAlbert(80, 3, rng.New(53)), 1, 6, rng.New(54)),
	} {
		R1 := []int{0, 5, 11}
		R2 := []int{2, 40, 79, 33}
		o, err := NewSetOracle(g, R1, true)
		if err != nil {
			t.Fatal(err)
		}
		// Memoise every row under R1, twice so hits are exercised.
		for v := 0; v < g.N(); v++ {
			o.Deps(v)
			o.Deps(v)
		}
		if o.Hits == 0 {
			t.Fatalf("%s: memo never hit under R1", name)
		}
		if err := o.Retarget(R2); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewSetOracle(g, R2, true)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			got := o.Deps(v)
			want := fresh.Deps(v)
			if len(got) != len(R2) {
				t.Fatalf("%s v=%d: stale row length %d after Retarget", name, v, len(got))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s v=%d target %d: %v after Retarget vs %v fresh — stale memo served",
						name, v, R2[i], got[i], want[i])
				}
			}
		}
		// Retarget back to R1 must likewise not resurrect R1-era rows as
		// hits-without-eval: a full pass re-evaluates every row.
		evalsBefore := o.Evals
		if err := o.Retarget(R1); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			o.Deps(v)
		}
		if o.Evals != evalsBefore+g.N() {
			t.Fatalf("%s: expected %d evals after second Retarget, got %d",
				name, evalsBefore+g.N(), o.Evals)
		}
	}
}

// TestSetOracleRetargetValidates pins Retarget's input contract.
func TestSetOracleRetargetValidates(t *testing.T) {
	g := graph.Path(10)
	o, err := NewSetOracle(g, []int{0, 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{{}, {-1}, {10}, {3, 3}} {
		if err := o.Retarget(bad); err == nil {
			t.Fatalf("Retarget(%v) accepted", bad)
		}
	}
	// A failed Retarget must leave the oracle usable on its old set.
	if got := o.Deps(5); len(got) != 2 {
		t.Fatalf("oracle broken after rejected Retarget: row length %d", len(got))
	}
}

// TestChainBitIdenticalWhereExact: on graphs whose dependency values
// both routes compute exactly (integer-valued sums — star and path),
// the full chain Result must be bit-identical between the fast oracle
// and the forced-Brandes reference, RNG stream and all.
func TestChainBitIdenticalWhereExact(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		r    int
	}{
		// Trees: shortest paths are unique, so every dependency is a sum
		// of ones — exact in any summation order. (Graphs with σ > 1,
		// karate or a grid, differ between the routes in the last ulp;
		// they belong to the 1e-9 tolerance test above.)
		{"star-center", graph.Star(60), 0},
		{"path-mid", graph.Path(50), 25},
		{"tree-internal", graph.KaryTree(40, 3), 1},
	}
	for _, tc := range cases {
		n := tc.g.N()
		fast, err := NewOracle(tc.g, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newReferenceOracle(tc.g, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		// Precondition: both routes agree bit-for-bit on this graph —
		// otherwise the case can't promise chain identity and must be
		// dropped rather than silently weakened.
		for v := 0; v < n; v++ {
			if fast.Dep(v) != ref.Dep(v) {
				t.Fatalf("%s: routes differ at δ_%d: %v vs %v — case no longer exact",
					tc.name, v, fast.Dep(v), ref.Dep(v))
			}
		}
		cfg := DefaultConfig(600)
		runWith := func(o *Oracle) Result {
			b := newChainBuffers(tc.g)
			res, err := runSingleChain(context.Background(), tc.g, o, cfg, rng.New(97), b, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		fastRes := runWith(fast)
		refRes := runWith(ref)
		// Each chain memoises on its own fresh buffers, so even the
		// work counters must agree.
		if !reflect.DeepEqual(fastRes, refRes) {
			t.Fatalf("%s: chain results differ:\nfast %+v\nref  %+v", tc.name, fastRes, refRes)
		}
	}
}

// TestEstimateBCPooledMatchesUnpooled guards the engine's bit-identity
// contract across the new buffer plumbing: pooled and unpooled runs
// with one seed must agree exactly, on both oracle routes.
func TestEstimateBCPooledMatchesUnpooled(t *testing.T) {
	gs := map[string]*graph.Graph{
		"bfs-route":      graph.BarabasiAlbert(200, 3, rng.New(59)),
		"dijkstra-route": graph.WithUniformWeights(graph.BarabasiAlbert(200, 3, rng.New(59)), 1, 7, rng.New(60)),
	}
	for name, g := range gs {
		pool := NewBufferPool(g)
		cfg := DefaultConfig(400)
		for _, r := range []int{0, 5} {
			a, err := runBC(g, r, cfg, 71, pool)
			if err != nil {
				t.Fatal(err)
			}
			bres, err := runBC(g, r, cfg, 71, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Run twice through the pool so buffer reuse (stale memo
			// epochs) is exercised too.
			c, err := runBC(g, r, cfg, 71, pool)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, bres) || !reflect.DeepEqual(a, c) {
				t.Fatalf("%s target %d: pooled/unpooled/reused results differ", name, r)
			}
		}
	}
	t.Run("mu-first", testPooledMatchesUnpooledAfterMu)
}

// testPooledMatchesUnpooledAfterMu is the pooled/unpooled equivalence
// with a μ derivation on the pool first. The first run reads the
// column μ parked instead of traversing and must still match the
// unpooled run in every Result field, Evals and CacheHits included;
// it leaves no column behind, and the next run, which traverses,
// matches too. The graphs cover hybrid BFS (BA), Dijkstra (weighted
// BA), the classic loop with σ far above 2^53 (Grid(40,40): corner to
// corner σ = C(78,39) ≈ 2.7e22), and a streamed overlay snapshot
// whose chain buffers reseat from the base graph.
func testPooledMatchesUnpooledAfterMu(t *testing.T) {
	ba := graph.BarabasiAlbert(200, 3, rng.New(59))
	grid := graph.Grid(40, 40)
	overlayPool := NewBufferPool(ba)
	// Seat the pool's buffers on the base graph, so the overlay chains
	// below reseat them.
	if _, err := Run(context.Background(), ba, BC(5), DefaultConfig(50), 1, 4, overlayPool); err != nil {
		t.Fatal(err)
	}
	v := 1
	for ba.HasEdge(0, v) {
		v++
	}
	overlay, _, err := graph.ApplyEditsOverlay(ba, []graph.Edit{{Op: graph.EditAdd, U: 0, V: v}})
	if err != nil {
		t.Fatal(err)
	}
	overlayPool.Advance(overlay)

	fixtures := []struct {
		name string
		g    *graph.Graph
		r    int
		pool func() *BufferPool
	}{
		{"bfs-hybrid", ba, 0, nil},
		{"dijkstra", graph.WithUniformWeights(ba, 1, 7, rng.New(60)), 5, nil},
		{"grid40x40-classic", grid, 20*40 + 20, nil},
		{"overlay", overlay, 0, func() *BufferPool { return overlayPool }},
	}
	chains := DefaultConfig(400)
	degree := DefaultConfig(400)
	degree.DegreeProposal = true
	nocache := DefaultConfig(150)
	nocache.DisableCache = true
	variants := []struct {
		name   string
		cfg    Config
		chains int
	}{
		{"chains4", chains, 4},
		{"degree-proposal", degree, 1},
		{"disable-cache", nocache, 1},
	}
	run := func(t *testing.T, g *graph.Graph, r int, cfg Config, chains int, pool *BufferPool) any {
		t.Helper()
		if chains > 1 {
			m, err := Run(context.Background(), g, BC(r), cfg, 71, chains, pool)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		res, err := runBC(g, r, cfg, 71, pool)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, fx := range fixtures {
		for _, vr := range variants {
			t.Run(fx.name+"/"+vr.name, func(t *testing.T) {
				pool := NewBufferPool(fx.g)
				if fx.pool != nil {
					pool = fx.pool()
				}
				want := run(t, fx.g, fx.r, vr.cfg, vr.chains, nil)
				if _, err := MuExactPooledContext(context.Background(), fx.g, fx.r, pool); err != nil {
					t.Fatal(err)
				}
				ent := pool.target(fx.g, fx.r)
				if ent.col.Load() == nil {
					t.Fatal("μ derivation parked no column")
				}
				before := pool.ColumnChains()
				if got := run(t, fx.g, fx.r, vr.cfg, vr.chains, pool); !reflect.DeepEqual(got, want) {
					t.Fatalf("column-served run differs from unpooled:\n got %+v\nwant %+v", got, want)
				}
				if ent.col.Load() != nil {
					t.Fatal("column still parked after the first run")
				}
				if got := pool.ColumnChains() - before; got != uint64(vr.chains) {
					t.Fatalf("ColumnChains grew by %d, want %d", got, vr.chains)
				}
				if got := run(t, fx.g, fx.r, vr.cfg, vr.chains, pool); !reflect.DeepEqual(got, want) {
					t.Fatal("traversing run after the column run differs from unpooled")
				}
				if got := pool.ColumnChains() - before; got != uint64(vr.chains) {
					t.Fatalf("second run was column-served (ColumnChains grew by %d)", got)
				}
			})
		}
	}
}

// TestParkedColumnTakenOnce races several runs on one target right
// after its μ derivation: exactly one run takes the parked column, the
// others traverse, and every run matches the unpooled result.
func TestParkedColumnTakenOnce(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, rng.New(59))
	pool := NewBufferPool(g)
	cfg := DefaultConfig(300)
	want, err := runBC(g, 0, cfg, 71, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MuExactPooledContext(context.Background(), g, 0, pool); err != nil {
		t.Fatal(err)
	}
	const runs = 6
	got := make([]Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = runBC(g, 0, cfg, 71, pool)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("run %d differs from unpooled", i)
		}
	}
	if n := pool.ColumnChains(); n != 1 {
		t.Fatalf("%d runs took the column, want 1", n)
	}
}

// TestDegreeProposalAliasCached checks the pool builds the degree table
// once and the chain still matches the unpooled run bit-for-bit.
func TestDegreeProposalAliasCached(t *testing.T) {
	g := graph.BarabasiAlbert(150, 2, rng.New(61))
	pool := NewBufferPool(g)
	if pool.degreeAlias(g) != pool.degreeAlias(g) {
		t.Fatal("degree alias rebuilt on second use")
	}
	cfg := DefaultConfig(300)
	cfg.DegreeProposal = true
	a, err := runBC(g, 0, cfg, 83, pool)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runBC(g, 0, cfg, 83, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("degree-proposal pooled run differs from unpooled")
	}
}

// TestPooledOutOfRangeTargetErrors: an invalid target must come back
// as an error (never a panic out of the snapshot build), pooled or not,
// single- or multi-chain.
func TestPooledOutOfRangeTargetErrors(t *testing.T) {
	g := graph.Path(10)
	pool := NewBufferPool(g)
	cfg := DefaultConfig(10)
	for _, r := range []int{-1, 10} {
		if _, err := runBC(g, r, cfg, 1, pool); err == nil {
			t.Fatalf("pooled target %d accepted", r)
		}
		if _, err := runBC(g, r, cfg, 1, nil); err == nil {
			t.Fatalf("unpooled target %d accepted", r)
		}
		if _, err := Run(context.Background(), g, BC(r), cfg, 1, 2, pool); err == nil {
			t.Fatalf("parallel target %d accepted", r)
		}
	}
}

// TestTargetSPDCacheLRU exercises the pool's snapshot cache bound.
func TestTargetSPDCacheLRU(t *testing.T) {
	g := graph.BarabasiAlbert(260, 2, rng.New(67))
	pool := NewBufferPool(g)
	first := pool.TargetSnapshot(g, 0)
	if first == nil || first.Target != 0 {
		t.Fatal("snapshot missing")
	}
	if pool.TargetSnapshot(g, 0) != first {
		t.Fatal("snapshot not cached")
	}
	// Touch more targets than the cache holds; entry 0 must be evicted
	// and rebuilt (a different pointer), newer entries still cached.
	for r := 1; r <= targetSPDCacheSize+10; r++ {
		pool.TargetSnapshot(g, r%g.N())
	}
	if pool.tspdLRU.Len() > targetSPDCacheSize {
		t.Fatalf("cache grew to %d", pool.tspdLRU.Len())
	}
	if pool.TargetSnapshot(g, 0) == first {
		t.Fatal("evicted snapshot pointer resurrected")
	}
	// Each route serves only its own snapshot kind.
	if pool.target(g, 0).wspd != nil {
		t.Fatal("unweighted pool returned a weighted snapshot")
	}
	w := graph.WithUniformWeights(g, 1, 3, rng.New(68))
	wpool := NewBufferPool(w)
	if wpool.TargetSnapshot(w, 0) != nil {
		t.Fatal("weighted pool returned an unweighted snapshot")
	}
	wfirst := wpool.target(w, 0).wspd
	if wfirst == nil || wfirst.Target != 0 {
		t.Fatal("weighted snapshot missing")
	}
	if wpool.target(w, 0).wspd != wfirst {
		t.Fatal("weighted snapshot not cached")
	}
	// Same LRU bound and eviction behaviour as the unweighted kind.
	for r := 1; r <= targetSPDCacheSize+10; r++ {
		wpool.target(w, r%w.N())
	}
	if wpool.tspdLRU.Len() > targetSPDCacheSize {
		t.Fatalf("weighted cache grew to %d", wpool.tspdLRU.Len())
	}
	if wpool.target(w, 0).wspd == wfirst {
		t.Fatal("evicted weighted snapshot pointer resurrected")
	}
}

// NewOracle returns an oracle for δ_·•(target) on g, auto-selecting the
// evaluation route, on buffers of its own.
func NewOracle(g *graph.Graph, target int) (*Oracle, error) {
	return newOracleBuffered(g, target, newChainBuffers(g), targetState{}, nil)
}

// newReferenceOracle forces the Brandes route regardless of graph kind —
// the baseline the equivalence tests hold the identity route to.
func newReferenceOracle(g *graph.Graph, target int) (*Oracle, error) {
	if target < 0 || target >= g.N() {
		return nil, fmt.Errorf("mcmc: oracle target %d out of range", target)
	}
	return &Oracle{
		target: target,
		c:      sssp.NewComputer(g),
		delta:  make([]float64, g.N()),
	}, nil
}
