package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"bcmh/internal/brandes"
	"bcmh/internal/graph"
	"bcmh/internal/mcmc"
	"bcmh/internal/rng"
)

func TestEstimateBCFixedSteps(t *testing.T) {
	g := graph.KarateClub()
	est, err := EstimateBC(g, 0, Options{Steps: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ms, _ := mcmc.MuExact(g, 0)
	if math.Abs(est.Value-ms.ChainLimit) > 0.05 {
		t.Fatalf("estimate %v far from chain limit %v", est.Value, ms.ChainLimit)
	}
	if est.PlannedSteps != 5000 || est.Chains != 1 {
		t.Fatalf("metadata wrong: %+v", est)
	}
	if est.Diagnostics.AcceptanceRate <= 0 {
		t.Fatal("diagnostics missing")
	}
}

func TestEstimateBCPlansFromEpsilonDelta(t *testing.T) {
	g := graph.Star(20)
	est, err := EstimateBC(g, 0, Options{Epsilon: 0.05, Delta: 0.2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if est.MuUsed <= 0 {
		t.Fatal("planner did not compute mu")
	}
	want := mcmc.PlanSteps(0.05, 0.2, est.MuUsed)
	if est.PlannedSteps != want {
		t.Fatalf("planned %d want %d", est.PlannedSteps, want)
	}
}

func TestEstimateBCMuBoundOverride(t *testing.T) {
	g := graph.KarateClub()
	est, err := EstimateBC(g, 0, Options{Epsilon: 0.1, Delta: 0.2, MuBound: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if est.MuUsed != 2 {
		t.Fatalf("mu bound not used: %v", est.MuUsed)
	}
	if est.PlannedSteps != mcmc.PlanSteps(0.1, 0.2, 2) {
		t.Fatalf("planned steps %d", est.PlannedSteps)
	}
}

func TestEstimateBCMaxStepsCap(t *testing.T) {
	g := graph.KarateClub()
	est, err := EstimateBC(g, 0, Options{Epsilon: 0.0001, Delta: 0.01, MuBound: 10, MaxSteps: 1234, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if est.PlannedSteps != 1234 {
		t.Fatalf("cap not applied: %d", est.PlannedSteps)
	}
}

// TestPlanSaturatesAtMaxSteps pins the planner against int overflow:
// an Eq. 14 length beyond the int range plans MaxSteps (it used to wrap
// to a negative int and clamp to a 1-step chain), and plans in range
// are unchanged.
func TestPlanSaturatesAtMaxSteps(t *testing.T) {
	for _, c := range []struct {
		opts Options
		mu   float64
		want int
	}{
		{Options{Epsilon: 1e-9, MaxSteps: 1 << 20}, 2.354, 1 << 20},
		{Options{Epsilon: 1e-12, MaxSteps: 1 << 20}, 2.354, 1 << 20},
		{Options{Epsilon: 0.01, Delta: 0.1}, 10, 1497867},
		{Options{Epsilon: 0.01, Delta: 0.1}, 1e6, DefaultMaxSteps},
		{Options{Epsilon: 0.01, Delta: 0.1}, 1e9, DefaultMaxSteps},
		{Options{Epsilon: 0.01, Delta: 0.1}, 1e200, DefaultMaxSteps},
	} {
		if got := PlanFromMu(c.opts, c.mu); got != c.want {
			t.Errorf("PlanFromMu(ε=%v, μ=%v) = %d, want %d", c.opts.Epsilon, c.mu, got, c.want)
		}
	}
	g := graph.KarateClub()
	for _, o := range []Options{
		{Epsilon: 1e-12, MaxSteps: 4096, Seed: 1},
		{MuBound: 1e9, MaxSteps: 4096, Seed: 1},
	} {
		est, err := EstimateBC(g, 0, o)
		if err != nil {
			t.Fatal(err)
		}
		if est.PlannedSteps != 4096 {
			t.Errorf("EstimateBC(ε=%v, μ bound %v) planned %d steps, want MaxSteps 4096", o.Epsilon, o.MuBound, est.PlannedSteps)
		}
	}
	res, err := EstimateRelative(g, []int{0, 33}, RelOptions{MuBound: 1e9, MaxSteps: 4096, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, m := range res.MSize {
		total += m
	}
	if total != 4096+1 {
		t.Errorf("EstimateRelative(μ bound 1e9) ran %d joint states, want MaxSteps+1 = 4097", total)
	}
}

// TestDeltaOutOfRangeRejected pins that δ ≥ 1 is an error, not a
// planner panic, on every library entry point.
func TestDeltaOutOfRangeRejected(t *testing.T) {
	g := graph.KarateClub()
	for _, o := range []Options{
		{Delta: 1.5, MaxSteps: 512},
		{Delta: 1, MuBound: 2},
		{Delta: 1.5, Adaptive: true},
	} {
		if _, err := EstimateBC(g, 0, o); err == nil {
			t.Errorf("EstimateBC accepted delta %v", o.Delta)
		}
		if _, err := EstimateBCPreparedContext(context.Background(), g, 0, o, 2, nil); err == nil {
			t.Errorf("EstimateBCPreparedContext accepted delta %v", o.Delta)
		}
	}
	if _, err := EstimateRelative(g, []int{0, 33}, RelOptions{Delta: 1.5}); err == nil {
		t.Error("EstimateRelative accepted delta 1.5")
	}
}

func TestEstimateBCZeroBCShortCircuit(t *testing.T) {
	// Star leaf: planner sees μ = 0 → exact answer 0 with no sampling.
	est, err := EstimateBC(graph.Star(10), 4, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 0 || est.PlannedSteps != 0 {
		t.Fatalf("zero-BC short circuit failed: %+v", est)
	}
}

func TestEstimateBCMultiChain(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, rng.New(7))
	est, err := EstimateBC(g, 0, Options{Steps: 2000, Chains: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(est.PerChain) != 4 {
		t.Fatalf("per-chain results %d", len(est.PerChain))
	}
	// Deterministic.
	est2, _ := EstimateBC(g, 0, Options{Steps: 2000, Chains: 4, Seed: 8})
	if est.Value != est2.Value {
		t.Fatal("multi-chain estimate not reproducible")
	}
}

func TestEstimateBCValidation(t *testing.T) {
	g := graph.KarateClub()
	if _, err := EstimateBC(nil, 0, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := EstimateBC(g, 99, Options{Steps: 10}); err == nil {
		t.Fatal("bad vertex accepted")
	}
	b := graph.NewDirectedBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	if _, err := EstimateBC(b.MustBuild(), 0, Options{Steps: 10}); err == nil {
		t.Fatal("directed graph accepted")
	}
	db := graph.NewBuilder(4)
	db.AddEdge(0, 1)
	db.AddEdge(2, 3)
	if _, err := EstimateBC(db.MustBuild(), 0, Options{Steps: 10}); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestPrepare(t *testing.T) {
	// Connected graph: returned as-is.
	g := graph.KarateClub()
	same, mapping, err := Prepare(g)
	if err != nil || same != g || mapping != nil {
		t.Fatalf("connected prepare: %v %v %v", same, mapping, err)
	}
	// Disconnected: largest component extracted with mapping.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(4, 5)
	lc, mapping, err := Prepare(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if lc.N() != 3 || len(mapping) != 3 {
		t.Fatalf("prepare extracted n=%d", lc.N())
	}
	if _, _, err := Prepare(nil); err == nil {
		t.Fatal("nil accepted")
	}
}

func TestEstimateRelative(t *testing.T) {
	g := graph.KarateClub()
	R := []int{0, 2, 33}
	res, err := EstimateRelative(g, R, RelOptions{Steps: 30000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	gt, _ := mcmc.ExactRelative(g, R)
	for i := range R {
		for j := range R {
			if i == j {
				continue
			}
			if math.IsNaN(res.RatioEst[i][j]) {
				t.Fatalf("NaN ratio at (%d,%d)", i, j)
			}
			if math.Abs(res.RatioEst[i][j]-gt.Ratio[i][j])/gt.Ratio[i][j] > 0.3 {
				t.Fatalf("ratio (%d,%d) %v vs %v", i, j, res.RatioEst[i][j], gt.Ratio[i][j])
			}
		}
	}
}

func TestEstimateRelativePlansSteps(t *testing.T) {
	g := graph.KarateClub()
	R := []int{0, 33}
	res, err := EstimateRelative(g, R, RelOptions{Epsilon: 0.2, Delta: 0.3, MuBound: 2, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, m := range res.MSize {
		total += m
	}
	want := mcmc.PlanSteps(0.2, 0.3, 2)*len(R) + 1
	if total != want {
		t.Fatalf("planned joint states %d want %d", total, want)
	}
}

func TestEstimateRelativeAllZeroTargets(t *testing.T) {
	g := graph.Star(8)
	if _, err := EstimateRelative(g, []int{2, 3}, RelOptions{}); err == nil {
		t.Fatal("all-zero-BC target set accepted by planner")
	} else if !strings.Contains(err.Error(), "zero betweenness") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestExactBC(t *testing.T) {
	g := graph.KarateClub()
	bc, err := ExactBC(g)
	if err != nil {
		t.Fatal(err)
	}
	ref := brandes.BC(g)
	for v := range ref {
		if math.Abs(bc[v]-ref[v]) > 1e-12 {
			t.Fatal("ExactBC differs from Brandes")
		}
	}
	if _, err := ExactBC(nil); err == nil {
		t.Fatal("nil accepted")
	}
}

func TestExactBCOf(t *testing.T) {
	g := graph.KarateClub()
	ref := brandes.BC(g)
	got, err := ExactBCOf(g, 33)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-ref[33]) > 1e-12 {
		t.Fatalf("ExactBCOf %v want %v", got, ref[33])
	}
	if _, err := ExactBCOf(g, -1); err == nil {
		t.Fatal("bad vertex accepted")
	}
}

func TestMuFacade(t *testing.T) {
	g := graph.KarateClub()
	ms, err := Mu(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Mu <= 0 || ms.BC <= 0 {
		t.Fatalf("mu stats %+v", ms)
	}
}
