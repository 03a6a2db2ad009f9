package mcmc

import (
	"math"
	"testing"

	"bcmh/internal/brandes"
	"bcmh/internal/graph"
	"bcmh/internal/rng"
	"bcmh/internal/stats"
)

func TestEstimateStressConverges(t *testing.T) {
	g := graph.KarateClub()
	exact := brandes.StressOfVertexExact(g, 0)
	res, err := EstimateStress(g, 0, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RelError(res.ProposalSide, exact) > 0.15 {
		t.Fatalf("proposal-side stress %v exact %v", res.ProposalSide, exact)
	}
	if stats.RelError(res.Harmonic, exact) > 0.15 {
		t.Fatalf("harmonic stress %v exact %v", res.Harmonic, exact)
	}
	if res.AcceptanceRate <= 0 || res.AcceptanceRate > 1 {
		t.Fatalf("acceptance %v", res.AcceptanceRate)
	}
	if res.Evals == 0 || res.CacheHits == 0 {
		t.Fatalf("work accounting missing: %+v", res)
	}
}

func TestEstimateStressUnbiasedProposal(t *testing.T) {
	g := graph.Grid(6, 6)
	r := 2*6 + 3
	exact := brandes.StressOfVertexExact(g, r)
	rnd := rng.New(7)
	var acc stats.Welford
	for rep := 0; rep < 150; rep++ {
		res, err := EstimateStress(g, r, 30, rnd.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(res.ProposalSide)
	}
	if math.Abs(acc.Mean()-exact) > 4*acc.StdErr()+1e-9 {
		t.Fatalf("stress proposal-side bias: %v vs %v (stderr %v)", acc.Mean(), exact, acc.StdErr())
	}
}

func TestEstimateStressWeightedMeanDominates(t *testing.T) {
	// The chain's weighted mean must be ≥ the uniform mean Σδ/n, the
	// same dominance as the betweenness chain.
	g := graph.KarateClub()
	exact := brandes.StressOfVertexExact(g, 33)
	res, err := EstimateStress(g, 33, 20000, 11)
	if err != nil {
		t.Fatal(err)
	}
	uniformMean := exact / float64(g.N())
	if res.ChainWeightedMean < uniformMean*0.9 {
		t.Fatalf("weighted mean %v should dominate uniform mean %v", res.ChainWeightedMean, uniformMean)
	}
}

func TestEstimateStressZeroTarget(t *testing.T) {
	// Star leaf: zero stress; estimates must be exactly 0.
	g := graph.Star(8)
	res, err := EstimateStress(g, 3, 500, 13)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProposalSide != 0 || res.Harmonic != 0 || res.ChainWeightedMean != 0 {
		t.Fatalf("zero-stress target: %+v", res)
	}
}

func TestEstimateStressValidation(t *testing.T) {
	g := graph.Path(4)
	if _, err := EstimateStress(g, 9, 10, 1); err == nil {
		t.Fatal("bad target accepted")
	}
	if _, err := EstimateStress(g, 1, 0, 1); err == nil {
		t.Fatal("zero steps accepted")
	}
	single := graph.NewBuilder(1).MustBuild()
	if _, err := EstimateStress(single, 0, 10, 1); err == nil {
		t.Fatal("tiny graph accepted")
	}
}
