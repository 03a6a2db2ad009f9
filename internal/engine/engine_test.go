package engine

import (
	"reflect"
	"sync"
	"testing"

	"bcmh/internal/core"
	"bcmh/internal/graph"
	"bcmh/internal/rng"
)

// plannedOpts is a cheap planned-mode request: steps come from μ via
// Eq. 14 but are clamped low so tests stay fast.
func plannedOpts() core.Options {
	return core.Options{Epsilon: 0.05, Delta: 0.1, MaxSteps: 512}
}

func newKarateEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := New(graph.KarateClub())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEstimateMatchesCore(t *testing.T) {
	// The engine must be a pure cache in front of core.EstimateBC:
	// same options and seed, bit-identical estimate — pooled buffers,
	// the cached μ, and the planned chain reading the dependency column
	// its μ derivation parked change where memory lives and who
	// computes what, never the chain itself. The whole Estimate is
	// compared, Diagnostics (Evals and CacheHits included) and PerChain
	// too. The 40×40 grid runs on the classic BFS loop with σ far above
	// 2^53.
	fixtures := []struct {
		name    string
		g       *graph.Graph
		targets []int
	}{
		{"karate", graph.KarateClub(), []int{0, 2, 33}},
		{"grid40x40", graph.Grid(40, 40), []int{20*40 + 20, 41, 5*40 + 30}},
	}
	for _, fx := range fixtures {
		e, err := New(fx.g)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range fx.targets {
			for _, opts := range []core.Options{
				{Steps: 400, Seed: 7},
				{Epsilon: 0.05, Delta: 0.1, MaxSteps: 512, Seed: 9},
				{Steps: 300, Chains: 4, Seed: 11},
			} {
				want, err := core.EstimateBC(fx.g, r, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.Estimate(r, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s vertex %d opts %+v: engine %+v != core %+v", fx.name, r, opts, got, want)
				}
			}
		}
		// Each target's planned request is the first chain after its μ
		// derivation, so it, and only it, read the column.
		if got := e.Stats().MuColumnChains; got != uint64(len(fx.targets)) {
			t.Fatalf("%s: %d column-served chains, want %d", fx.name, got, len(fx.targets))
		}
	}
}

func TestEstimateZeroBCVertex(t *testing.T) {
	// Karate vertex 11 hangs off vertex 0 alone: BC = 0, and the
	// planned path must short-circuit without running a chain.
	e := newKarateEngine(t)
	est, err := e.Estimate(11, plannedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 0 || est.PlannedSteps != 0 {
		t.Fatalf("zero-BC vertex estimate %+v", est)
	}
}

func TestEstimateVertexOutOfRange(t *testing.T) {
	e := newKarateEngine(t)
	if _, err := e.Estimate(34, plannedOpts()); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if _, err := e.Estimate(-1, plannedOpts()); err == nil {
		t.Fatal("negative vertex accepted")
	}
	if _, err := e.EstimateBatch([]int{0, 99}, BatchOptions{Estimation: plannedOpts()}); err == nil {
		t.Fatal("batch with out-of-range target accepted")
	}
}

func TestResultCacheServesRepeats(t *testing.T) {
	e := newKarateEngine(t)
	opts := plannedOpts()
	opts.Seed = 3
	first, err := e.Estimate(0, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Estimate(0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Value != second.Value {
		t.Fatalf("cache returned different value: %v vs %v", first.Value, second.Value)
	}
	st := e.Stats()
	if st.ResultHits != 1 || st.ResultMisses != 1 || st.Estimates != 1 {
		t.Fatalf("stats after repeat: %+v", st)
	}
	// Explicit defaults and zero-valued fields are the same request.
	explicit := core.Options{Epsilon: 0.05, Delta: 0.1, MaxSteps: 512, Chains: 1, Seed: 3}
	if _, err := e.Estimate(0, explicit); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.ResultHits != 2 {
		t.Fatalf("normalized-options request missed the cache: %+v", st)
	}
	// A different seed is a different request.
	opts.Seed = 4
	if _, err := e.Estimate(0, opts); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Estimates != 2 {
		t.Fatalf("different seed should re-estimate: %+v", st)
	}
}

func TestConcurrentEstimatesShareOneMu(t *testing.T) {
	// The μ-cache singleflight: many concurrent planned requests for
	// one target must trigger exactly one O(nm) MuExact computation.
	// Distinct seeds keep every request out of the result LRU so each
	// one reaches the μ lookup.
	e := newKarateEngine(t)
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := plannedOpts()
			opts.Seed = uint64(i + 1)
			_, errs[i] = e.Estimate(0, opts)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.MuMisses != 1 {
		t.Fatalf("expected exactly one μ computation, got %d (stats %+v)", st.MuMisses, st)
	}
	if st.MuHits != goroutines-1 {
		t.Fatalf("expected %d μ-cache hits, got %d", goroutines-1, st.MuHits)
	}
	if st.Estimates != goroutines {
		t.Fatalf("expected %d estimates, got %d", goroutines, st.Estimates)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight counter leaked: %d", st.InFlight)
	}
}

func batchValues(t *testing.T, targets []int, opts BatchOptions) []float64 {
	t.Helper()
	// A fresh engine per run: determinism must come from seeds, not
	// from cache state left by a previous run.
	e := newKarateEngine(t)
	results, err := e.EstimateBatch(targets, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(targets) {
		t.Fatalf("got %d results for %d targets", len(results), len(targets))
	}
	vals := make([]float64, len(results))
	for i, br := range results {
		if br.Target != targets[i] {
			t.Fatalf("result %d is for target %d, want %d", i, br.Target, targets[i])
		}
		vals[i] = br.Estimate.Value
	}
	return vals
}

func TestBatchDeterministicAcrossConcurrency(t *testing.T) {
	// Same request seed → bit-identical batch results, across repeated
	// runs and across worker-pool widths; duplicate targets agree with
	// each other and with their first occurrence.
	targets := []int{0, 33, 2, 0, 31, 33, 8, 0, 1, 13}
	base := BatchOptions{Estimation: plannedOpts(), Seed: 42, Concurrency: 1}
	want := batchValues(t, targets, base)
	for _, conc := range []int{1, 2, 4, 8} {
		opts := base
		opts.Concurrency = conc
		got := batchValues(t, targets, opts)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("concurrency %d: result %d = %v, want %v", conc, i, got[i], want[i])
			}
		}
	}
	// Order independence: each target's estimate is a function of
	// (request seed, target) alone.
	reversed := make([]int, len(targets))
	for i, r := range targets {
		reversed[len(targets)-1-i] = r
	}
	opts := base
	opts.Concurrency = 4
	rev := batchValues(t, reversed, opts)
	for i := range want {
		if rev[len(want)-1-i] != want[i] {
			t.Fatalf("target %d: reversed batch gives %v, want %v", targets[i], rev[len(want)-1-i], want[i])
		}
	}
}

func TestBatchEntryReproducibleViaEstimate(t *testing.T) {
	// Any batch entry can be replayed through a single Estimate with
	// the SeedFor-derived seed.
	e := newKarateEngine(t)
	targets := []int{0, 2, 33}
	opts := BatchOptions{Estimation: plannedOpts(), Seed: 5}
	results, err := e.EstimateBatch(targets, opts)
	if err != nil {
		t.Fatal(err)
	}
	single := newKarateEngine(t)
	for i, r := range targets {
		o := plannedOpts()
		o.Seed = SeedFor(opts.Seed, r)
		est, err := single.Estimate(r, o)
		if err != nil {
			t.Fatal(err)
		}
		if est.Value != results[i].Estimate.Value {
			t.Fatalf("target %d: replay %v != batch %v", r, est.Value, results[i].Estimate.Value)
		}
	}
}

func TestEstimateMatchesCoreWeighted(t *testing.T) {
	// The weighted (Dijkstra identity) oracle route under the engine:
	// same pure-cache contract as TestEstimateMatchesCore, and batch
	// entries replay through single Estimates, on a weighted graph.
	g := graph.WithUniformWeights(graph.KarateClub(), 1, 9, rng.New(91))
	e, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{0, 2, 33} {
		opts := core.Options{Steps: 400, Seed: 7}
		want, err := core.EstimateBC(g, r, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Estimate(r, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want.Value || got.MuUsed != want.MuUsed {
			t.Fatalf("vertex %d: engine %+v != core %+v", r, got, want)
		}
	}
	targets := []int{0, 2, 33, 0, 2, 33}
	results, err := e.EstimateBatch(targets, BatchOptions{Estimation: plannedOpts(), Seed: 5, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	single, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range targets {
		o := plannedOpts()
		o.Seed = SeedFor(5, r)
		est, err := single.Estimate(r, o)
		if err != nil {
			t.Fatal(err)
		}
		if est.Value != results[i].Estimate.Value {
			t.Fatalf("target %d: replay %v != batch %v", r, est.Value, results[i].Estimate.Value)
		}
	}
}

func TestBatchSharesWorkAcrossDuplicates(t *testing.T) {
	// 4 distinct vertices requested 4× each: μ computed once per
	// distinct vertex and each chain run once — duplicates are
	// dispatched once regardless of concurrency (the finding a naive
	// LRU-only design misses: racing workers would recompute them).
	targets := []int{0, 2, 31, 33, 0, 2, 31, 33, 0, 2, 31, 33, 0, 2, 31, 33}
	e := newKarateEngine(t)
	results, err := e.EstimateBatch(targets, BatchOptions{Estimation: plannedOpts(), Seed: 1, Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.MuMisses != 4 {
		t.Fatalf("expected 4 μ computations for 4 distinct targets, got %d", st.MuMisses)
	}
	if st.Estimates != 4 {
		t.Fatalf("duplicates were recomputed: %+v", st)
	}
	if st.Batches != 1 {
		t.Fatalf("batch counter %d", st.Batches)
	}
	for i, br := range results {
		if br.Estimate.Value != results[i%4].Estimate.Value {
			t.Fatalf("duplicate occurrence %d disagrees with first: %v vs %v", i, br.Estimate.Value, results[i%4].Estimate.Value)
		}
	}
	// A second identical batch is all result-cache hits.
	if _, err := e.EstimateBatch(targets, BatchOptions{Estimation: plannedOpts(), Seed: 1, Concurrency: 8}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Estimates != 4 || st.ResultHits != 4 {
		t.Fatalf("repeat batch was not cache-served: %+v", st)
	}
}

func TestOptionsNormalizationUnifiesCacheKeys(t *testing.T) {
	// Negative "use the default" spellings must share a cache entry
	// with their canonical form.
	e := newKarateEngine(t)
	canonical := plannedOpts()
	canonical.Seed = 6
	if _, err := e.Estimate(0, canonical); err != nil {
		t.Fatal(err)
	}
	odd := canonical
	odd.Steps = -1
	odd.Chains = -2
	odd.MuBound = -0.5
	est, err := e.Estimate(0, odd)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Estimates != 1 || st.ResultHits != 1 {
		t.Fatalf("negative-default options missed the cache: %+v", st)
	}
	if est.Chains != 1 {
		t.Fatalf("normalized chains %d, want 1", est.Chains)
	}
}

func TestCachedPerChainIsDetached(t *testing.T) {
	// Mutating a returned estimate's PerChain must not poison the
	// cache.
	e := newKarateEngine(t)
	opts := core.Options{Steps: 200, Chains: 3, Seed: 8}
	first, err := e.Estimate(0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.PerChain) != 3 {
		t.Fatalf("PerChain %d, want 3", len(first.PerChain))
	}
	want := first.PerChain[0].Estimate
	first.PerChain[0].Estimate = -42
	second, err := e.Estimate(0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.PerChain[0].Estimate != want {
		t.Fatalf("cache entry was mutated through the returned slice: %v", second.PerChain[0].Estimate)
	}
}

func TestEmptyBatch(t *testing.T) {
	e := newKarateEngine(t)
	results, err := e.EstimateBatch(nil, BatchOptions{Estimation: plannedOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("empty batch returned %d results", len(results))
	}
}

func TestSeedForIsStablePerTarget(t *testing.T) {
	if SeedFor(1, 5) != SeedFor(1, 5) {
		t.Fatal("SeedFor not deterministic")
	}
	if SeedFor(1, 5) == SeedFor(1, 6) {
		t.Fatal("SeedFor collides across targets")
	}
	if SeedFor(1, 5) == SeedFor(2, 5) {
		t.Fatal("SeedFor ignores the request seed")
	}
}

func TestNewPreparesLargestComponent(t *testing.T) {
	// A two-component graph: New must keep the largest component and
	// expose the vertex mapping.
	b := graph.NewBuilder(7)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	if e.Graph().N() != 4 {
		t.Fatalf("largest component has %d vertices, want 4", e.Graph().N())
	}
	if e.Mapping() == nil {
		t.Fatal("mapping missing after component extraction")
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	k := func(v int) resultKey { return resultKey{vertex: v} }
	est := func(x float64) core.Estimate { return core.Estimate{Value: x} }
	c.add(k(1), est(1))
	c.add(k(2), est(2))
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("entry 1 evicted too early")
	}
	// 1 is now most recent; adding 3 evicts 2.
	c.add(k(3), est(3))
	if _, ok := c.get(k(2)); ok {
		t.Fatal("LRU kept the least-recently-used entry")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("recently used entry evicted")
	}
	if got, _ := c.get(k(3)); got.Value != 3 {
		t.Fatalf("entry 3 = %v", got.Value)
	}
	if c.len() != 2 {
		t.Fatalf("len %d, want 2", c.len())
	}
	// Disabled cache.
	d := newLRUCache(-1)
	d.add(k(1), est(1))
	if _, ok := d.get(k(1)); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

func TestPooledBuffersDoNotPerturbChains(t *testing.T) {
	// Interleave estimations of different targets on one engine and
	// compare each against a fresh engine: recycled buffers (cleared
	// memo maps, reused scratch) must never leak state across targets.
	shared := newKarateEngine(t)
	order := []int{0, 33, 0, 2, 33, 31, 2, 0}
	rnd := rng.New(99)
	for i, r := range order {
		opts := plannedOpts()
		opts.Seed = rnd.Uint64()
		got, err := shared.Estimate(r, opts)
		if err != nil {
			t.Fatal(err)
		}
		fresh := newKarateEngine(t)
		want, err := fresh.Estimate(r, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want.Value {
			t.Fatalf("step %d target %d: shared-engine %v != fresh-engine %v", i, r, got.Value, want.Value)
		}
	}
}
