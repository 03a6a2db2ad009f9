package mcmc

import (
	"context"
	"math"
	"testing"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
	"bcmh/internal/stats"
)

func TestMuFromDepsStar(t *testing.T) {
	// Star center, n=10: δ = 8 on all 9 leaves, 0 at the center.
	// max = 8, mean = 72/10 = 7.2 → μ = 10/9.
	g := graph.Star(10)
	ms, err := MuExact(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ms.Mu-10.0/9.0) > 1e-12 {
		t.Fatalf("star μ %v want 10/9", ms.Mu)
	}
	if ms.MaxDep != 8 || ms.PositiveStates != 9 {
		t.Fatalf("star stats %+v", ms)
	}
	if math.Abs(ms.BC-8.0/10.0) > 1e-12 {
		t.Fatalf("star BC %v", ms.BC)
	}
	// Chain limit = BC·n/n⁺ here (constant δ on support).
	if math.Abs(ms.ChainLimit-ms.BC*10/9) > 1e-12 {
		t.Fatalf("star chain limit %v", ms.ChainLimit)
	}
	if ms.Bias <= 0 {
		t.Fatal("bias should be positive")
	}
}

func TestMuLeafIsZeroish(t *testing.T) {
	// Star leaf: all-zero column → μ = 0, BC = 0, limit = 0.
	ms, err := MuExact(graph.Star(8), 3)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Mu != 0 || ms.BC != 0 || ms.ChainLimit != 0 || ms.Bias != 0 {
		t.Fatalf("leaf stats %+v", ms)
	}
}

func TestMuSeparatorConstantTheorem2(t *testing.T) {
	// Theorem 2 regime: StarOfCliques center shatters the graph into l
	// equal components; μ(center) should stay bounded as n grows, and
	// the bound 1 + 1/K (K=1 for equal components → 2) should hold
	// asymptotically. A clique-interior vertex in a barbell has tiny
	// dependency mass by comparison.
	sizes := []int{10, 20, 40, 80}
	if testing.Short() {
		// The largest instances dominate the runtime; the asymptotic
		// claim is still exercised by the remaining growth sequence.
		sizes = sizes[:3]
	}
	var prev float64
	for _, size := range sizes {
		g := graph.StarOfCliques(4, size)
		ms, err := MuExact(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ms.Mu > 2.5 {
			t.Fatalf("separator μ %v exceeds Theorem 2 ballpark at size %d", ms.Mu, size)
		}
		prev = ms.Mu
	}
	_ = prev
	// Contrast: an *unbalanced* separator — the hub holding 2 leaves in
	// DoubleStar(2, k) — violates Theorem 2's Θ(n)-components premise,
	// and its μ must grow with n: its two leaves depend on it for
	// everything (δ ≈ n) while average dependency stays O(1).
	var muSmall, muLarge float64
	{
		ms, _ := MuExact(graph.DoubleStar(2, 50), 0)
		muSmall = ms.Mu
	}
	{
		big := 400
		if testing.Short() {
			big = 200 // μ grows ~linearly in n; half the size still doubles muSmall
		}
		ms, _ := MuExact(graph.DoubleStar(2, big), 0)
		muLarge = ms.Mu
	}
	if muLarge < 2*muSmall {
		t.Fatalf("unbalanced-separator μ should grow with n: %v -> %v", muSmall, muLarge)
	}
	// Balanced barbell path vertex stays small.
	sep, _ := MuExact(graph.Barbell(80, 80, 2), 80)
	if sep.Mu > 3 {
		t.Fatalf("balanced barbell separator μ %v", sep.Mu)
	}
}

func TestPlanStepsMatchesStats(t *testing.T) {
	if PlanSteps(0.01, 0.1, 2) != stats.MCMCSampleSize(0.01, 0.1, 2) {
		t.Fatal("PlanSteps should delegate to stats")
	}
	if TheoremOneBound(1000, 0.05, 2) != stats.MCMCBound(1000, 0.05, 2) {
		t.Fatal("TheoremOneBound should delegate to stats")
	}
}

func TestMuExactValidation(t *testing.T) {
	if _, err := MuExact(graph.Path(3), 9); err == nil {
		t.Fatal("bad target accepted")
	}
}

func TestMuFromDepsDegenerate(t *testing.T) {
	if ms := MuFromDeps(nil); ms.Mu != 0 {
		t.Fatal("empty deps should give zero stats")
	}
	if ms := MuFromDeps([]float64{5}); ms.Mu != 0 {
		t.Fatal("single-entry deps should give zero stats")
	}
}

func TestTheorem1CoverageEmpirical(t *testing.T) {
	// Mini version of experiment F2: with T from Eq. 14, the deviation
	// |est − E_π f| should exceed ε in at most ~δ of runs. (The bound
	// governs deviation from the chain's own limit; tested against
	// ChainLimit, with the understanding the paper conflates it with
	// BC.)
	g := graph.Star(40) // near-iid chain: bound is meaningful at small T
	ms, _ := MuExact(g, 0)
	eps, delta := 0.05, 0.2
	T := PlanSteps(eps, delta, ms.Mu)
	r := rng.New(23)
	errs := make([]float64, 0, 60)
	for rep := 0; rep < 60; rep++ {
		res, err := runBC(g, 0, DefaultConfig(T), r.Uint64(), nil)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, res.ChainAverage-ms.ChainLimit)
	}
	cov := stats.EmpiricalCoverage(errs, eps)
	if cov > delta {
		t.Fatalf("empirical violation rate %v exceeds δ=%v (T=%d)", cov, delta, T)
	}
}

func TestMultiChainPoolsCorrectly(t *testing.T) {
	g := graph.BarabasiAlbert(150, 2, rng.New(29))
	cfg := DefaultConfig(2000)
	m, err := Run(context.Background(), g, BC(0), cfg, 31, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PerChain) != 4 {
		t.Fatalf("per-chain results %d", len(m.PerChain))
	}
	// Combined chain average = mean of per-chain averages.
	var want float64
	for _, r := range m.PerChain {
		want += r.ChainAverage
	}
	want /= 4
	if math.Abs(m.Combined.ChainAverage-want) > 1e-12 {
		t.Fatalf("pooling wrong: %v vs %v", m.Combined.ChainAverage, want)
	}
	if m.BetweenChainStdDev <= 0 {
		t.Fatal("between-chain spread should be positive")
	}
	limit, _ := chainLimitFor(g, 0)
	if math.Abs(m.Combined.ChainAverage-limit) > 0.1*limit+0.01 {
		t.Fatalf("pooled estimate %v far from limit %v", m.Combined.ChainAverage, limit)
	}
}

func TestMultiChainDeterministic(t *testing.T) {
	g := graph.KarateClub()
	cfg := DefaultConfig(500)
	a, err := Run(context.Background(), g, BC(0), cfg, 37, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Run(context.Background(), g, BC(0), cfg, 37, 3, nil)
	if a.Combined.Estimate != b.Combined.Estimate {
		t.Fatal("parallel runs with same seed differ")
	}
	for i := range a.PerChain {
		if a.PerChain[i].Estimate != b.PerChain[i].Estimate {
			t.Fatalf("chain %d differs across runs", i)
		}
	}
}

func TestMultiChainValidation(t *testing.T) {
	g := graph.KarateClub()
	if _, err := Run(context.Background(), g, BC(0), DefaultConfig(10), 1, 0, nil); err == nil {
		t.Fatal("zero chains accepted")
	}
	if _, err := Run(context.Background(), g, BC(0), Config{Steps: -1}, 1, 2, nil); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestMultiChainEstimatorKinds(t *testing.T) {
	g := graph.KarateClub()
	for _, k := range []EstimatorKind{EstimatorChainAverage, EstimatorPaperEq7, EstimatorProposalSide, EstimatorHarmonic} {
		cfg := DefaultConfig(300)
		cfg.Estimator = k
		m, err := Run(context.Background(), g, BC(0), cfg, 41, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		switch k {
		case EstimatorChainAverage:
			want = m.Combined.ChainAverage
		case EstimatorPaperEq7:
			want = m.Combined.PaperEq7
		case EstimatorProposalSide:
			want = m.Combined.ProposalSide
		case EstimatorHarmonic:
			want = m.Combined.Harmonic
		}
		if m.Combined.Estimate != want {
			t.Fatalf("kind %v not selected in combined result", k)
		}
	}
}

func BenchmarkEstimateBCStep(b *testing.B) {
	g := graph.BarabasiAlbert(5000, 3, rng.New(1))
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One fresh 64-step chain per iteration: measures per-step cost
		// including realistic cache behaviour.
		if _, err := runBC(g, 0, DefaultConfig(64), r.Uint64(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJointStep(b *testing.B) {
	g := graph.BarabasiAlbert(2000, 3, rng.New(1))
	R := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateRelative(g, R, DefaultJointConfig(64), r); err != nil {
			b.Fatal(err)
		}
	}
}
