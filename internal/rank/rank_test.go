package rank

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"
	"time"

	"bcmh/internal/brandes"
	"bcmh/internal/core"
	"bcmh/internal/graph"
	"bcmh/internal/measure"
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

// TestRankDeterministic pins that runs with equal options are
// identical entry for entry whatever their worker count — a
// betweenness ranking's lanes are summed in lane order, never in
// scheduling order.
func TestRankDeterministic(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, rng.New(7))
	opts := Options{K: 5, InitialSteps: 64, MaxRounds: 4, Seed: 42, Concurrency: 8}
	a, err := Run(context.Background(), g, nil, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 1} {
		opts.Concurrency = workers
		b, err := Run(context.Background(), g, nil, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.All) != len(b.All) || a.TotalSteps != b.TotalSteps || a.Rounds != b.Rounds {
			t.Fatalf("shape mismatch: %+v vs %+v", a, b)
		}
		for i := range a.All {
			if a.All[i] != b.All[i] {
				t.Fatalf("concurrency %d: entry %d differs: %+v vs %+v", workers, i, a.All[i], b.All[i])
			}
		}
	}
}

// exactTestGraphs are the route-spanning graphs the exactness tests
// rank: karate on the BFS loop, an integer-weight grid on the Dial
// route, and a fractional-weight BA graph on the calendar route.
func exactTestGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"karate":     graph.KarateClub(),
		"int-grid":   graph.WithIntegerWeights(graph.Grid(8, 8), 1, 10, rng.New(3)),
		"fractional": graph.WithUniformWeights(graph.BarabasiAlbert(80, 2, rng.New(4)), 1, 10, rng.New(5)),
	}
}

// TestRankExactAtFullBudget pins the m = n end of a betweenness
// ranking: once every source has been seen, each estimate is the exact
// betweenness, each interval is that point, and TopK is the exact
// top-k with ties broken by id.
func TestRankExactAtFullBudget(t *testing.T) {
	for name, g := range exactTestGraphs() {
		t.Run(name, func(t *testing.T) {
			n := g.N()
			res, err := Run(context.Background(), g, nil, Options{K: 5, Seed: 9, InitialSteps: 16, TotalBudget: n + 7, Concurrency: 3}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalSteps != n || len(res.All) != n {
				t.Fatalf("%d passes, %d entries on %d vertices", res.TotalSteps, len(res.All), n)
			}
			bc := brandes.BC(g)
			for _, e := range append(res.All, res.TopK...) {
				if want := bc[e.Vertex]; math.Abs(e.Estimate-want) > 1e-12*want {
					t.Fatalf("vertex %d: estimate %v, exact %v", e.Vertex, e.Estimate, want)
				}
				if e.Lower != e.Estimate || e.Upper != e.Estimate || e.Steps != n {
					t.Fatalf("vertex %d: interval [%v, %v] around %v after %d passes, want the point", e.Vertex, e.Lower, e.Upper, e.Estimate, e.Steps)
				}
			}
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			sort.SliceStable(order, func(a, b int) bool { return bc[order[a]] > bc[order[b]] })
			for i, e := range res.TopK {
				if want := bc[order[i]]; math.Abs(bc[e.Vertex]-want) > 1e-12*want {
					t.Fatalf("top-%d is %v, exact order %v", len(res.TopK), res.TopK, order[:len(res.TopK)])
				}
				if i > 0 && e.Estimate == res.TopK[i-1].Estimate && e.Vertex < res.TopK[i-1].Vertex {
					t.Fatalf("tie at %v not broken by id: %v", e.Estimate, res.TopK)
				}
			}
		})
	}
}

// TestRankIntervalCoverage checks the half-width formula empirically:
// over 200 seeds, with a quarter of the sources seen, at most 5% of the
// returned top-5 intervals may miss the exact value.
func TestRankIntervalCoverage(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"karate":   graph.KarateClub(),
		"int-grid": graph.WithIntegerWeights(graph.Grid(12, 12), 1, 10, rng.New(6)),
	} {
		t.Run(name, func(t *testing.T) {
			bc := brandes.BC(g)
			budget := (g.N() + 3) / 4
			misses, total := 0, 0
			for seed := uint64(1); seed <= 200; seed++ {
				res, err := Run(context.Background(), g, nil, Options{K: 5, Seed: seed, TotalBudget: budget}, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range res.TopK {
					total++
					if bc[e.Vertex] < e.Lower || bc[e.Vertex] > e.Upper {
						misses++
					}
				}
			}
			if misses*20 > total {
				t.Fatalf("%d of %d top-5 intervals miss the exact value", misses, total)
			}
			t.Logf("%s: %d of %d top-5 intervals miss the exact value at m = %d of %d", name, misses, total, budget, g.N())
		})
	}
}

// TestRankRejectsChainKnobs pins that a betweenness ranking refuses the
// knobs only per-candidate chains use, instead of ignoring them.
func TestRankRejectsChainKnobs(t *testing.T) {
	g := graph.KarateClub()
	for _, opts := range []Options{
		{K: 5, Estimator: EstimatorChainAverage},
		{K: 5, Adaptive: true, Epsilon: 0.05},
	} {
		if _, err := Run(context.Background(), g, nil, opts, nil); err == nil {
			t.Fatalf("%+v: accepted", opts)
		}
		opts.Measure = measure.Spec{Kind: measure.Coverage}
		if _, err := Run(context.Background(), g, nil, opts, nil); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
	}
}

// TestRankRejectsDirected pins that a directed graph, weighted or not,
// gets an error instead of reaching a kernel built for undirected rows.
func TestRankRejectsDirected(t *testing.T) {
	for _, w := range []float64{1, 2.5} {
		b := graph.NewDirectedBuilder(4)
		for v := 0; v < 4; v++ {
			b.AddWeightedEdge(v, (v+1)%4, w)
		}
		if _, err := Run(context.Background(), b.MustBuild(), nil, Options{K: 2}, nil); err == nil {
			t.Fatalf("weight %v: directed graph accepted", w)
		}
	}
}

// TestRankCancellation pins prompt abort: a ranking of 5,000 sources,
// seconds of passes, must return with the context's error well before
// finishing once cancelled.
func TestRankCancellation(t *testing.T) {
	g := graph.BarabasiAlbert(5000, 3, rng.New(11))
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
