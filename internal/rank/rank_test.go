package rank

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"bcmh/internal/core"
	"bcmh/internal/graph"
	"bcmh/internal/mcmc"
	"bcmh/internal/rng"
	"bcmh/internal/stats"
)

// exactTopK returns the exact top-k vertex set of g (ties by lower id)
// plus the full exact BC vector.
func exactTopK(t *testing.T, g *graph.Graph, k int) (map[int]bool, []float64) {
	t.Helper()
	bc, err := core.ExactBC(g)
	if err != nil {
		t.Fatal(err)
	}
	top := make(map[int]bool, k)
	for _, v := range stats.TopKIndices(bc, k) {
		top[v] = true
	}
	return top, bc
}

func topSet(entries []Entry) map[int]bool {
	s := make(map[int]bool, len(entries))
	for _, e := range entries {
		s[e.Vertex] = true
	}
	return s
}

func sameSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// TestRankKarateTop5 is the golden-graph acceptance test: ranking the
// karate club with default options must recover the exact top-5 set,
// and the full estimate vector must correlate strongly with exact BC
// (the ranking-quality metrics of internal/stats applied end to end).
func TestRankKarateTop5(t *testing.T) {
	g := graph.KarateClub()
	exact, bc := exactTopK(t, g, 5)
	res, err := Run(context.Background(), g, nil, Options{K: 5, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := topSet(res.TopK); !sameSet(got, exact) {
		t.Fatalf("top-5 mismatch: got %v want %v (full: %+v)", got, exact, res.TopK)
	}
	// Ranking-quality metrics over the full candidate set: estimates in
	// vertex order vs exact BC.
	est := make([]float64, g.N())
	for _, e := range res.All {
		est[e.Vertex] = e.Estimate
	}
	if rho := stats.Spearman(est, bc); rho < 0.8 {
		t.Fatalf("Spearman(est, exact) = %v, want ≥ 0.8", rho)
	}
	if ov := stats.TopKOverlap(est, bc, 5); ov != 1 {
		t.Fatalf("TopKOverlap@5 = %v, want 1", ov)
	}
	if res.Pruned == 0 {
		t.Fatalf("expected progressive pruning to eliminate candidates, got none (rounds=%d)", res.Rounds)
	}
	t.Logf("karate: rounds=%d totalSteps=%d pruned=%d/%d inversions(vs exact)=%d",
		res.Rounds, res.TotalSteps, res.Pruned, len(res.All), stats.Inversions(est, bc))
}

// TestRankDeterministic pins that two runs with equal options are
// identical entry for entry — chain seeds depend only on
// (seed, round, vertex), never on worker scheduling.
func TestRankDeterministic(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, rng.New(7))
	opts := Options{K: 5, InitialSteps: 64, MaxRounds: 4, Seed: 42, Concurrency: 8}
	a, err := Run(context.Background(), g, nil, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts.Concurrency = 2
	b, err := Run(context.Background(), g, nil, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.All) != len(b.All) || a.TotalSteps != b.TotalSteps || a.Rounds != b.Rounds {
		t.Fatalf("shape mismatch: %+v vs %+v", a, b)
	}
	for i := range a.All {
		if a.All[i] != b.All[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a.All[i], b.All[i])
		}
	}
}

// checkReplay holds a one-round Uniform ranking to table-free replays:
// every candidate's Estimate must equal, bit for bit, the mean of the
// proposal trace mcmc.Run produces for the candidate's round-1 seed on
// a fresh pool. The ranking's chains read the job's row table and the
// replays traverse, so a single wrong δ served by the table fails it.
func checkReplay(t *testing.T, g *graph.Graph, res Result, per int, seed uint64) {
	t.Helper()
	if len(res.All) != g.N() {
		t.Fatalf("%d entries for %d candidates", len(res.All), g.N())
	}
	cfg := mcmc.Config{Steps: per, InitState: -1, CollectProposalTrace: true}
	for _, e := range res.All {
		r, err := mcmc.Run(context.Background(), g, mcmc.BC(e.Vertex), cfg, ChainSeed(seed, 1, e.Vertex), 1, mcmc.NewBufferPool(g))
		if err != nil {
			t.Fatal(err)
		}
		if want := stats.Mean(r.Combined.ProposalFTrace); math.Float64bits(e.Estimate) != math.Float64bits(want) {
			t.Fatalf("vertex %d: ranked estimate %v, replay %v", e.Vertex, e.Estimate, want)
		}
	}
}

// TestRankChainSeedReplay pins that every candidate's round chain is
// replayable through the public seed derivation, with the ranking's
// row table serving the same values a traversing chain computes — on
// the BFS route, the Dial route and the calendar route.
func TestRankChainSeedReplay(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"karate":     graph.KarateClub(),
		"int-grid":   graph.WithIntegerWeights(graph.Grid(8, 8), 1, 10, rng.New(3)),
		"fractional": graph.WithUniformWeights(graph.BarabasiAlbert(80, 2, rng.New(4)), 1, 10, rng.New(5)),
	} {
		t.Run(name, func(t *testing.T) {
			res, err := Uniform(context.Background(), g, nil, 5, 64, Options{Seed: 9, Concurrency: 3})
			if err != nil {
				t.Fatal(err)
			}
			checkReplay(t, g, res, 64, 9)
		})
	}
}

// TestRankRowTableBounded ranks a graph whose rows exceed the table's
// budget (382 rows fit of 600): the table stops short of one row per
// vertex, and the ranking still replays exactly. A second Run on the
// same pool builds as many rows again, so the first handed its budget
// back when it returned.
func TestRankRowTableBounded(t *testing.T) {
	g := graph.BarabasiAlbert(600, 3, rng.New(8))
	pool := mcmc.NewBufferPool(g)
	var first uint64
	for run := 0; run < 2; run++ {
		res, err := Uniform(context.Background(), g, pool, 5, 32, Options{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		built, _ := pool.SourceRowStats()
		if run == 0 {
			first = built
		}
		if first == 0 || first >= uint64(g.N()) || built != first*uint64(run+1) {
			t.Fatalf("run %d: %d rows built in all, %d by the first run, for %d vertices: want the budget to stop each table at the same row count", run, built, first, g.N())
		}
		checkReplay(t, g, res, 32, 4)
	}
}

// TestRankJobsShareRowTable runs a second job on a snapshot while a
// first one is still ranking it: the two share one row table, so
// between them they build at most one row per vertex, and the second
// job's result is bit-identical to a run of its own.
func TestRankJobsShareRowTable(t *testing.T) {
	g := graph.WithIntegerWeights(graph.Grid(20, 20), 1, 10, rng.New(21))
	pool := mcmc.NewBufferPool(g)
	opts := func(seed uint64) Options {
		return Options{K: 5, Seed: seed, InitialSteps: 32, MaxRounds: 2}
	}
	aRound1, bDone := make(chan struct{}), make(chan struct{})
	var aErr error
	aFinished := make(chan struct{})
	go func() {
		defer close(aFinished)
		_, aErr = Run(context.Background(), g, pool, opts(1), func(p Progress) {
			if p.Round == 1 {
				close(aRound1)
				<-bDone // hold the first job, and its table, until the second has run
			}
		})
	}()
	<-aRound1
	b, err := Run(context.Background(), g, pool, opts(2), nil)
	close(bDone)
	<-aFinished
	if err != nil || aErr != nil {
		t.Fatal(err, aErr)
	}
	if built, _ := pool.SourceRowStats(); built == 0 || built > uint64(g.N()) {
		t.Fatalf("%d rows built by two overlapping jobs on %d vertices: want one shared table", built, g.N())
	}
	solo, err := Run(context.Background(), g, mcmc.NewBufferPool(g), opts(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, solo) {
		t.Fatalf("job on a shared table %+v, alone %+v", b.TopK, solo.TopK)
	}
}

// TestRankCancellation pins prompt abort: a ranking with a huge budget
// must return with the context's error well before finishing once
// cancelled.
func TestRankCancellation(t *testing.T) {
	g := graph.BarabasiAlbert(1000, 3, rng.New(11))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := Run(ctx, g, nil, Options{K: 5, InitialSteps: 1 << 18, MaxRounds: 1, Seed: 1}, nil)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("cancellation took %v", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ranking did not abort after cancellation")
	}
}

// TestRankTotalBudget pins the budget cap: total steps spent never
// exceed TotalBudget, and the run still produces a full ranking.
func TestRankTotalBudget(t *testing.T) {
	g := graph.KarateClub()
	budget := 3000
	res, err := Run(context.Background(), g, nil,
		Options{K: 3, InitialSteps: 32, MaxRounds: 20, TotalBudget: budget, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps > budget {
		t.Fatalf("spent %d steps, budget %d", res.TotalSteps, budget)
	}
	if len(res.All) != g.N() || len(res.TopK) != 3 {
		t.Fatalf("ranking shape: all=%d top=%d", len(res.All), len(res.TopK))
	}
}

// TestRankStarvedBudgetErrors pins that a budget too small to fund one
// step per candidate fails loudly instead of returning an empty
// ranking with infinite (and unmarshalable) interval bounds.
func TestRankStarvedBudgetErrors(t *testing.T) {
	g := graph.KarateClub()
	if _, err := Run(context.Background(), g, nil, Options{K: 3, TotalBudget: 1, Seed: 1}, nil); err == nil {
		t.Fatal("want an error for a budget below the candidate count")
	}
}

// TestRankMaxCandidates pins the degree-biased screen: only the
// MaxCandidates highest-degree vertices are ranked, and the returned
// candidate count says so.
func TestRankMaxCandidates(t *testing.T) {
	g := graph.BarabasiAlbert(500, 3, rng.New(13))
	res, err := Run(context.Background(), g, nil,
		Options{K: 5, InitialSteps: 64, MaxRounds: 3, MaxCandidates: 50, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != 50 {
		t.Fatalf("candidates = %d, want 50", len(res.All))
	}
	vs := Candidates(g, 50)
	degFloor := g.Degree(vs[0])
	for _, v := range vs {
		if g.Degree(v) < degFloor {
			degFloor = g.Degree(v)
		}
	}
	// Every non-candidate must have degree ≤ the lowest candidate degree.
	in := make(map[int]bool, len(vs))
	for _, v := range vs {
		in[v] = true
	}
	for v := 0; v < g.N(); v++ {
		if !in[v] && g.Degree(v) > degFloor {
			t.Fatalf("vertex %d (deg %d) excluded despite beating the floor %d", v, g.Degree(v), degFloor)
		}
	}
}

// TestRankProgress pins the per-round progress stream: rounds ascend,
// step counts grow, and the partial top list is populated.
func TestRankProgress(t *testing.T) {
	g := graph.KarateClub()
	var rounds []int
	var steps []int
	_, err := Run(context.Background(), g, nil, Options{K: 5, Seed: 1}, func(p Progress) {
		rounds = append(rounds, p.Round)
		steps = append(steps, p.TotalSteps)
		if len(p.Top) == 0 || len(p.Top) > 5 {
			t.Fatalf("round %d: partial top has %d entries", p.Round, len(p.Top))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) == 0 {
		t.Fatal("no progress reported")
	}
	for i := range rounds {
		if rounds[i] != i+1 {
			t.Fatalf("rounds %v not consecutive", rounds)
		}
		if i > 0 && steps[i] <= steps[i-1] {
			t.Fatalf("steps %v not increasing", steps)
		}
	}
}

// TestProgressiveBeatsUniform is the efficiency acceptance test:
// progressive refinement must reach the exact top-5 set with fewer
// total MH steps than the cheapest uniform allocation that does the
// same. Fully deterministic (fixed seeds); the logged numbers are the
// ones README quotes.
func TestProgressiveBeatsUniform(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical allocation comparison (~12s); run without -short")
	}
	g := graph.BarabasiAlbert(400, 3, rng.New(31))
	exact, _ := exactTopK(t, g, 5)
	pool := mcmc.NewBufferPool(g)

	prog, err := Run(context.Background(), g, pool, Options{K: 5, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := topSet(prog.TopK); !sameSet(got, exact) {
		t.Fatalf("progressive top-5 %v != exact %v", got, exact)
	}

	// Smallest power-of-two uniform per-candidate budget that recovers
	// the same set.
	uniformTotal := 0
	for per := 64; per <= 1<<16; per *= 2 {
		res, err := Uniform(context.Background(), g, pool, 5, per, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if sameSet(topSet(res.TopK), exact) {
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
	t.Logf("BA(400,3) top-5: progressive %d steps (%d rounds, %d pruned) vs uniform %d steps — %.1fx fewer",
		prog.TotalSteps, prog.Rounds, prog.Pruned, uniformTotal,
		float64(uniformTotal)/float64(prog.TotalSteps))
}
