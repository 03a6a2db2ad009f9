package rank

import (
	"context"
	"math"
	"sort"
	"testing"

	"bcmh/internal/graph"
	"bcmh/internal/mcmc"
	"bcmh/internal/measure"
	"bcmh/internal/rng"
	"bcmh/internal/stats"
)

// exactMeasureTopK returns the exact top-k vertex set of g under spec,
// from the measure's brute-force column evaluation.
func exactMeasureTopK(t *testing.T, g *graph.Graph, spec measure.Spec, k int) map[int]bool {
	t.Helper()
	vals := make([]float64, g.N())
	for r := 0; r < g.N(); r++ {
		ms, err := measure.Stats(context.Background(), g, spec, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		vals[r] = ms.BC
	}
	idx := make([]int, g.N())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	top := make(map[int]bool, k)
	for _, v := range idx[:k] {
		top[v] = true
	}
	return top
}

func rankTopSet(res Result) map[int]bool {
	s := make(map[int]bool, len(res.TopK))
	for _, e := range res.TopK {
		s[e.Vertex] = true
	}
	return s
}

// TestRankCoverageKarateTop5 pins the measure-generic ranking path: a
// coverage ranking on the karate club recovers the exact coverage
// top-5 (which differs in composition order from the bc top-5 — vertex
// 31 outranks 32 under coverage).
func TestRankCoverageKarateTop5(t *testing.T) {
	g := graph.KarateClub()
	spec := measure.Spec{Kind: measure.Coverage}
	res, err := Run(context.Background(), g, nil, Options{K: 5, Seed: 1, Measure: spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := exactMeasureTopK(t, g, spec, 5)
	got := rankTopSet(res)
	for v := range want {
		if !got[v] {
			t.Fatalf("coverage top-5 %v, exact %v", got, want)
		}
	}
}

// TestRankRWBCKarateTop3 runs the ranking under the most expensive
// measure (random-walk betweenness, CG solves per candidate) and checks
// the exact top-3.
func TestRankRWBCKarateTop3(t *testing.T) {
	g := graph.KarateClub()
	spec := measure.Spec{Kind: measure.RWBC}
	res, err := Run(context.Background(), g, nil, Options{K: 3, Seed: 2, Measure: spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := exactMeasureTopK(t, g, spec, 3)
	got := rankTopSet(res)
	for v := range want {
		if !got[v] {
			t.Fatalf("rwbc top-3 %v, exact %v", got, want)
		}
	}
}

// TestRankMeasureRejectsUnsupportedGraph pins the Supports gate: a
// weighted graph cannot be ranked under a shortest-path-count measure.
func TestRankMeasureRejectsUnsupportedGraph(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddWeightedEdge(0, 1, 2.5)
	b.AddWeightedEdge(1, 2, 1.5)
	b.AddWeightedEdge(0, 2, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), g, nil, Options{K: 2, Measure: measure.Spec{Kind: measure.Coverage}}, nil)
	if err == nil {
		t.Fatal("weighted graph accepted under coverage")
	}
}

// TestRankAdaptiveSpendsFewer pins the adaptive early stop of a chain
// measure: with the same knobs, the adaptive ranking completes with
// strictly fewer total MH steps than the fixed-chunk ranking (converged
// chains refund their unspent budget) and still recovers the exact
// top-5.
func TestRankAdaptiveSpendsFewer(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, rng.New(7))
	spec := measure.Spec{Kind: measure.Coverage}
	base := Options{K: 5, Seed: 3, InitialSteps: 4096, MaxRounds: 4, Measure: spec}
	fixed, err := Run(context.Background(), g, nil, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	adaptiveOpts := base
	adaptiveOpts.Adaptive = true
	adaptiveOpts.Epsilon = 0.02
	adaptiveOpts.Delta = 0.1
	adaptive, err := Run(context.Background(), g, nil, adaptiveOpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.TotalSteps >= fixed.TotalSteps {
		t.Fatalf("adaptive spent %d steps, fixed %d — no early stop happened",
			adaptive.TotalSteps, fixed.TotalSteps)
	}
	want := exactMeasureTopK(t, g, spec, 5)
	got := rankTopSet(adaptive)
	for v := range want {
		if !got[v] {
			t.Fatalf("adaptive top-5 %v, exact %v", got, want)
		}
	}
}

// checkReplay holds a one-round Uniform coverage ranking to replays:
// every candidate's Estimate must equal, bit for bit, the mean of the
// proposal trace mcmc.Run produces for the candidate's round-1 seed on
// a fresh pool.
func checkReplay(t *testing.T, g *graph.Graph, spec measure.Spec, res Result, per int, seed uint64) {
	t.Helper()
	if len(res.All) != g.N() {
		t.Fatalf("%d entries for %d candidates", len(res.All), g.N())
	}
	cfg := mcmc.Config{Steps: per, InitState: -1, CollectProposalTrace: true}
	for _, e := range res.All {
		pool := mcmc.NewBufferPool(g)
		src, err := measure.Source(context.Background(), g, spec, e.Vertex, pool)
		if err != nil {
			t.Fatal(err)
		}
		r, err := mcmc.Run(context.Background(), g, src, cfg, ChainSeed(seed, 1, e.Vertex), 1, pool)
		if err != nil {
			t.Fatal(err)
		}
		if want := stats.Mean(r.Combined.ProposalFTrace); math.Float64bits(e.Estimate) != math.Float64bits(want) {
			t.Fatalf("vertex %d: ranked estimate %v, replay %v", e.Vertex, e.Estimate, want)
		}
	}
}

// TestRankChainSeedReplay pins that every candidate's round chain is
// replayable through the public seed derivation, on a shared pool and
// several workers.
func TestRankChainSeedReplay(t *testing.T) {
	spec := measure.Spec{Kind: measure.Coverage}
	for name, g := range map[string]*graph.Graph{
		"karate": graph.KarateClub(),
		"grid":   graph.Grid(8, 8),
		"ba":     graph.BarabasiAlbert(80, 2, rng.New(4)),
	} {
		t.Run(name, func(t *testing.T) {
			res, err := Uniform(context.Background(), g, nil, 5, 64, Options{Seed: 9, Concurrency: 3, Measure: spec})
			if err != nil {
				t.Fatal(err)
			}
			checkReplay(t, g, spec, res, 64, 9)
		})
	}
}

// TestProgressiveBeatsUniform is the efficiency acceptance test of the
// chain measures: progressive refinement must reach the exact coverage
// top-5 set with fewer total MH steps than the cheapest uniform
// allocation that does the same. Fully deterministic (fixed seeds).
func TestProgressiveBeatsUniform(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical allocation comparison; run without -short")
	}
	g := graph.BarabasiAlbert(400, 3, rng.New(31))
	spec := measure.Spec{Kind: measure.Coverage}
	exact := exactMeasureTopK(t, g, spec, 5)
	pool := mcmc.NewBufferPool(g)

	prog, err := Run(context.Background(), g, pool, Options{K: 5, Seed: 1, Measure: spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rankTopSet(prog); !sameSet(got, exact) {
		t.Fatalf("progressive top-5 %v != exact %v", got, exact)
	}

	// Smallest power-of-two uniform per-candidate budget that recovers
	// the same set.
	uniformTotal := 0
	for per := 64; per <= 1<<16; per *= 2 {
		res, err := Uniform(context.Background(), g, pool, 5, per, Options{Seed: 1, Measure: spec})
		if err != nil {
			t.Fatal(err)
		}
		if sameSet(rankTopSet(res), exact) {
			uniformTotal = res.TotalSteps
			break
		}
	}
	if uniformTotal == 0 {
		t.Fatal("uniform allocation never matched the exact top-5")
	}
	if prog.TotalSteps >= uniformTotal {
		t.Fatalf("progressive spent %d steps, uniform needed only %d", prog.TotalSteps, uniformTotal)
	}
	t.Logf("BA(400,3) coverage top-5: progressive %d steps (%d rounds, %d pruned) vs uniform %d steps — %.1fx fewer",
		prog.TotalSteps, prog.Rounds, prog.Pruned, uniformTotal,
		float64(uniformTotal)/float64(prog.TotalSteps))
}
