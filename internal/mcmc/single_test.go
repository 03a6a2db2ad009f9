package mcmc

import (
	"context"
	"math"
	"testing"

	"bcmh/internal/brandes"
	"bcmh/internal/graph"
	"bcmh/internal/rng"
	"bcmh/internal/stats"
)

// runBC runs one bc chain through Run and returns that chain's Result.
func runBC(g *graph.Graph, r int, cfg Config, seed uint64, pool *BufferPool) (Result, error) {
	m, err := Run(context.Background(), g, BC(r), cfg, seed, 1, pool)
	return m.Combined, err
}

func TestOracleMatchesBrandes(t *testing.T) {
	g := graph.KarateClub()
	o, err := NewOracle(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	dep := brandes.DependencyVector(g, 0)
	for v := 0; v < g.N(); v++ {
		if got := o.Dep(v); math.Abs(got-dep[v]) > 1e-12 {
			t.Fatalf("oracle dep[%d] = %v want %v", v, got, dep[v])
		}
	}
}

// countingOracle wraps a StatOracle and counts its evaluations per
// vertex.
type countingOracle struct {
	StatOracle
	calls []int
}

func (o *countingOracle) Dep(v int) float64 {
	o.calls[v]++
	return o.StatOracle.Dep(v)
}

// TestOracleNoCache pins the chain loop's memo and its ablation: with
// the memo on, every vertex the chain reads is evaluated once (Evals
// counts the distinct vertices, and every later read is a cache hit);
// with DisableCache every read evaluates. Either way the loop reads
// Steps+1 states (TestCacheAblationSameResult pins the estimates).
func TestOracleNoCache(t *testing.T) {
	g := graph.KarateClub()
	const r, seed = 2, 13
	run := func(cfg Config) (Result, []int) {
		t.Helper()
		bc, err := NewOracle(g, r)
		if err != nil {
			t.Fatal(err)
		}
		o := &countingOracle{StatOracle: bc, calls: make([]int, g.N())}
		res, err := runSingleChain(context.Background(), g, o, cfg, rng.New(seed), newChainBuffers(g), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, o.calls
	}
	on, calls := run(DefaultConfig(300))
	distinct := 0
	for v, c := range calls {
		if c > 1 {
			t.Fatalf("memoised chain evaluated vertex %d %d times", v, c)
		}
		distinct += c
	}
	if on.Evals != distinct || on.Evals+on.CacheHits != on.StepsRun+1 || on.CacheHits == 0 {
		t.Fatalf("memoised chain: evals=%d hits=%d, want %d evals and %d reads", on.Evals, on.CacheHits, distinct, on.StepsRun+1)
	}
	cfg := DefaultConfig(300)
	cfg.DisableCache = true
	off, calls := run(cfg)
	total := 0
	for _, c := range calls {
		total += c
	}
	if off.Evals != total || off.Evals != off.StepsRun+1 || off.CacheHits != 0 {
		t.Fatalf("uncached chain: evals=%d hits=%d, %d evaluations for %d steps", off.Evals, off.CacheHits, total, off.StepsRun)
	}
}

func TestOracleBadTarget(t *testing.T) {
	if _, err := NewOracle(graph.Path(3), 9); err == nil {
		t.Fatal("bad target accepted")
	}
}

func TestSetOracle(t *testing.T) {
	g := graph.KarateClub()
	R := []int{0, 2, 33}
	o, err := NewSetOracle(g, R, true)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 10; v++ {
		deps := o.Deps(v)
		for i, r := range R {
			single, _ := NewOracle(g, r)
			if math.Abs(deps[i]-single.Dep(v)) > 1e-12 {
				t.Fatalf("set oracle deps[%d] for v=%d mismatch", i, v)
			}
		}
	}
	if o.Evals != 10 {
		t.Fatalf("set oracle evals %d", o.Evals)
	}
	o.Deps(3)
	if o.Hits != 1 {
		t.Fatalf("set oracle cache hits %d", o.Hits)
	}
}

func TestSetOracleValidation(t *testing.T) {
	g := graph.Path(5)
	if _, err := NewSetOracle(g, nil, true); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := NewSetOracle(g, []int{1, 1}, true); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := NewSetOracle(g, []int{1, 9}, true); err == nil {
		t.Fatal("out of range accepted")
	}
}

// chainLimitFor computes the exact value the chain average converges to
// (MuStats.ChainLimit, not BC), for bias-aware tolerance in convergence
// tests.
func chainLimitFor(g *graph.Graph, r int) (limit, exact float64) {
	ms, err := MuExact(g, r)
	if err != nil {
		panic(err)
	}
	return ms.ChainLimit, ms.BC
}

func TestEstimateBCConvergesToChainLimit(t *testing.T) {
	// The fundamental behaviour: the chain average converges to
	// E_π[f] = Σδ²/((n-1)Σδ). For the star center, δ is constant on its
	// support (every leaf), so the only bias left is the inherent
	// n/n⁺ inflation from the target's own zero-δ state: the uniform
	// average (Eq. 1's BC) includes it, the π-weighted chain average
	// cannot. limit = BC·n/(n-1) exactly here.
	n := 30
	g := graph.Star(n)
	res, err := runBC(g, 0, DefaultConfig(4000), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	limit, exact := chainLimitFor(g, 0)
	wantLimit := exact * float64(n) / float64(n-1)
	if math.Abs(limit-wantLimit) > 1e-12 {
		t.Fatalf("star-center limit %v want BC·n/(n-1) = %v", limit, wantLimit)
	}
	if math.Abs(res.ChainAverage-limit) > 0.01 {
		t.Fatalf("chain average %v want %v", res.ChainAverage, limit)
	}
}

func TestEstimateBCCentralVertexAccuracy(t *testing.T) {
	// For a high-BC vertex in a scale-free graph (small μ), the paper's
	// estimator should land near the truth.
	g := graph.BarabasiAlbert(400, 3, rng.New(3))
	bc := brandes.BC(g)
	top := 0
	for v := range bc {
		if bc[v] > bc[top] {
			top = v
		}
	}
	res, err := runBC(g, top, DefaultConfig(6000), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	limit, exact := chainLimitFor(g, top)
	// Chain average concentrates on its limit. (How far that limit sits
	// from exact BC is precisely what experiments T3/T10 measure — on
	// scale-free graphs it is visibly inflated even for the hub; print
	// the tables with `go run ./cmd/bcbench -run t3,t10`.)
	if math.Abs(res.ChainAverage-limit) > 0.05*math.Max(limit, 0.02)+0.01 {
		t.Fatalf("chain avg %v vs limit %v", res.ChainAverage, limit)
	}
	if limit < exact {
		t.Fatalf("chain limit %v below exact %v: weighted mean must dominate uniform mean", limit, exact)
	}
}

func TestProposalSideUnbiased(t *testing.T) {
	// The proposal-side estimator is plain uniform source sampling:
	// mean over repetitions must approach exact BC.
	g := graph.KarateClub()
	exact := brandes.BC(g)
	r := rng.New(7)
	var acc stats.Welford
	for rep := 0; rep < 200; rep++ {
		res, err := runBC(g, 33, DefaultConfig(40), r.Uint64(), nil)
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(res.ProposalSide)
	}
	if math.Abs(acc.Mean()-exact[33]) > 4*acc.StdErr()+1e-9 {
		t.Fatalf("proposal-side bias: %v vs %v (stderr %v)", acc.Mean(), exact[33], acc.StdErr())
	}
}

func TestHarmonicEstimatorConsistent(t *testing.T) {
	// The harmonic correction should remove the chain-average bias even
	// for a peripheral vertex where the bias is visible.
	g := graph.Grid(10, 10)
	// Off-center vertex: biased chain limit.
	target := 1*10 + 1
	limit, exact := chainLimitFor(g, target)
	if math.Abs(limit-exact) < 1e-6 {
		t.Skip("target not biased enough to discriminate")
	}
	cfg := DefaultConfig(60000)
	res, err := runBC(g, target, cfg, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Harmonic-exact) > 0.15*exact+0.005 {
		t.Fatalf("harmonic %v want %v (chain limit %v)", res.Harmonic, exact, limit)
	}
	// And the chain average should be near its (biased) limit, i.e.
	// measurably off the exact value.
	if math.Abs(res.ChainAverage-limit) > 0.15*limit+0.005 {
		t.Fatalf("chain average %v should approach %v", res.ChainAverage, limit)
	}
}

func TestPaperEq7VsChainAverage(t *testing.T) {
	// Eq. 7 literal (accepted-only / (T+1)) differs from the standard
	// chain average when rejections occur; with acceptance rate < 1 it
	// underestimates the chain average.
	g := graph.Grid(8, 8)
	res, err := runBC(g, 2, DefaultConfig(5000), 13, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.AcceptanceRate >= 0.999 {
		t.Skip("no rejections; estimators coincide")
	}
	if res.PaperEq7 > res.ChainAverage+1e-12 {
		t.Fatalf("eq7 %v should not exceed chain average %v", res.PaperEq7, res.ChainAverage)
	}
}

func TestEstimatorKindSelectsEstimate(t *testing.T) {
	g := graph.KarateClub()
	kinds := []EstimatorKind{EstimatorChainAverage, EstimatorPaperEq7, EstimatorProposalSide, EstimatorHarmonic}
	for _, k := range kinds {
		cfg := DefaultConfig(200)
		cfg.Estimator = k
		res, err := runBC(g, 0, cfg, 17, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		switch k {
		case EstimatorChainAverage:
			want = res.ChainAverage
		case EstimatorPaperEq7:
			want = res.PaperEq7
		case EstimatorProposalSide:
			want = res.ProposalSide
		case EstimatorHarmonic:
			want = res.Harmonic
		}
		if res.Estimate != want {
			t.Fatalf("kind %v: Estimate %v != %v", k, res.Estimate, want)
		}
		if k.String() == "" {
			t.Fatal("empty kind label")
		}
	}
	if EstimatorKind(99).String() == "" {
		t.Fatal("unknown kind should still label")
	}
}

func TestZeroBCTarget(t *testing.T) {
	// A star leaf: every dependency is zero; all estimators must return
	// exactly 0 and the chain must keep moving (0/0 accepts).
	g := graph.Star(12)
	res, err := runBC(g, 5, DefaultConfig(500), 19, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChainAverage != 0 || res.PaperEq7 != 0 || res.ProposalSide != 0 || res.Harmonic != 0 {
		t.Fatalf("zero-BC target: %+v", res)
	}
	if res.AcceptanceRate != 1 {
		t.Fatalf("0/0 transitions should all accept, rate %v", res.AcceptanceRate)
	}
	if res.UniqueStates < 2 {
		t.Fatal("chain did not move across zero states")
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.BarabasiAlbert(150, 2, rng.New(23))
	a, err := runBC(g, 0, DefaultConfig(1000), 29, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := runBC(g, 0, DefaultConfig(1000), 29, nil)
	if a.Estimate != b.Estimate || a.AcceptanceRate != b.AcceptanceRate || a.UniqueStates != b.UniqueStates {
		t.Fatal("same seed produced different results")
	}
}

func TestInitStateIndependence(t *testing.T) {
	// Inequality 12 holds from any initial state: estimates from
	// different fixed starts converge to the same limit.
	g := graph.BarabasiAlbert(200, 3, rng.New(31))
	limit, _ := chainLimitFor(g, 0)
	for _, init := range []int{0, 57, 199} {
		cfg := DefaultConfig(20000)
		cfg.InitState = init
		res, err := runBC(g, 0, cfg, 37, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.ChainAverage-limit) > 0.1*limit+0.01 {
			t.Fatalf("init %d: %v far from limit %v", init, res.ChainAverage, limit)
		}
	}
}

func TestBurnInReducesCountedStates(t *testing.T) {
	g := graph.KarateClub()
	cfg := DefaultConfig(100)
	cfg.BurnIn = 50
	res, err := runBC(g, 0, cfg, 41, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = res // burn-in correctness is statistical; here we check validity only
	cfg.BurnIn = 101
	if _, err := runBC(g, 0, cfg, 41, nil); err == nil {
		t.Fatal("burn-in beyond steps accepted")
	}
}

func TestDegreeProposalSameLimit(t *testing.T) {
	// Hastings-corrected degree proposal must preserve the stationary
	// distribution: chain average converges to the same limit.
	if testing.Short() {
		t.Skip("long-chain stationarity check (~1s, 5s under -race) skipped in -short mode")
	}
	g := graph.BarabasiAlbert(200, 3, rng.New(43))
	limit, _ := chainLimitFor(g, 0)
	cfg := DefaultConfig(30000)
	cfg.DegreeProposal = true
	res, err := runBC(g, 0, cfg, 47, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ChainAverage-limit) > 0.1*limit+0.01 {
		t.Fatalf("degree-proposal chain avg %v far from limit %v", res.ChainAverage, limit)
	}
	// Its proposal-side estimate is importance-weighted and stays
	// unbiased: check roughly against exact BC.
	_, exact := chainLimitFor(g, 0)
	r := rng.New(53)
	var acc stats.Welford
	for rep := 0; rep < 60; rep++ {
		res, _ := runBC(g, 0, cfg, r.Uint64(), nil)
		acc.Add(res.ProposalSide)
	}
	if math.Abs(acc.Mean()-exact) > 5*acc.StdErr()+0.003 {
		t.Fatalf("weighted proposal-side bias: %v vs %v", acc.Mean(), exact)
	}
}

func TestCacheAblationSameResult(t *testing.T) {
	g := graph.KarateClub()
	on := DefaultConfig(500)
	off := DefaultConfig(500)
	off.DisableCache = true
	a, _ := runBC(g, 0, on, 61, nil)
	b, _ := runBC(g, 0, off, 61, nil)
	if a.Estimate != b.Estimate {
		t.Fatal("cache changed the estimate")
	}
	if b.Evals <= a.Evals {
		t.Fatalf("no-cache should evaluate more: %d vs %d", b.Evals, a.Evals)
	}
	if a.CacheHits == 0 {
		t.Fatal("cache never hit")
	}
}

func TestConfigValidation(t *testing.T) {
	g := graph.Path(5)
	if _, err := runBC(g, 1, Config{Steps: 0}, 1, nil); err == nil {
		t.Fatal("zero steps accepted")
	}
	cfg := DefaultConfig(10)
	cfg.InitState = 99
	if _, err := runBC(g, 1, cfg, 1, nil); err == nil {
		t.Fatal("bad init state accepted")
	}
	if _, err := runBC(g, 9, DefaultConfig(10), 1, nil); err == nil {
		t.Fatal("bad target accepted")
	}
	single := graph.NewBuilder(1).MustBuild()
	if _, err := runBC(single, 0, DefaultConfig(10), 1, nil); err == nil {
		t.Fatal("n=1 graph accepted")
	}
}

func TestMuHat(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, rng.New(67))
	res, err := runBC(g, 0, DefaultConfig(3000), 71, nil)
	if err != nil {
		t.Fatal(err)
	}
	ms, _ := MuExact(g, 0)
	hat := res.MuHat()
	if hat <= 0 {
		t.Fatal("MuHat should be positive here")
	}
	// Empirical μ̂ is (approximately) a lower bound on true μ: the max
	// is under-observed, the mean is unbiased. Allow slack for mean
	// noise.
	if hat > ms.Mu*1.25 {
		t.Fatalf("MuHat %v exceeds exact mu %v", hat, ms.Mu)
	}
}

func TestAcceptanceRateReasonable(t *testing.T) {
	// With δ constant on its support (star center), the only rejections
	// come from proposing the single zero-δ state: acceptance ≈ 1-1/n.
	n := 40
	star := graph.Star(n)
	resStar, _ := runBC(star, 0, DefaultConfig(4000), 73, nil)
	if resStar.AcceptanceRate < 1-3.0/float64(n) {
		t.Fatalf("star acceptance %v, want ≈ 1-1/n", resStar.AcceptanceRate)
	}
	// A non-constant profile must reject sometimes.
	cyc := graph.Cycle(40)
	resCyc, _ := runBC(cyc, 0, DefaultConfig(4000), 79, nil)
	if resCyc.AcceptanceRate >= 1 {
		t.Fatal("cycle chain never rejected; dependency profile should be non-constant")
	}
}

// TestAdaptiveStopWaitsForBurnIn pins that the empirical-Bernstein rule
// never stops a chain before its first counted state: a stop inside
// burn-in would report Converged with an estimate averaged over no
// states, i.e. 0.
func TestAdaptiveStopWaitsForBurnIn(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, rng.New(5))
	cfg := DefaultConfig(4096)
	cfg.BurnIn = 200 // past the first two checkpoints (64, 128)
	cfg.AdaptiveEps = 0.5
	res, err := runBC(g, 0, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("loose rule did not fire: %+v", res)
	}
	if res.StepsRun < cfg.BurnIn {
		t.Fatalf("stopped at step %d, inside burn-in %d", res.StepsRun, cfg.BurnIn)
	}
	if res.ChainAverage <= 0 || res.Harmonic <= 0 {
		t.Fatalf("converged run reports no counted state: chain average %v, harmonic %v", res.ChainAverage, res.Harmonic)
	}
	// BurnIn 0 counts the initial state, so the first checkpoint may stop.
	cfg.BurnIn = 0
	if res, err = runBC(g, 0, cfg, 1, nil); err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.StepsRun != adaptiveFirstCheck {
		t.Fatalf("BurnIn 0: converged %v at step %d, want the first checkpoint %d", res.Converged, res.StepsRun, adaptiveFirstCheck)
	}
}
