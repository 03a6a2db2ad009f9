package exp

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"bcmh/internal/brandes"
	"bcmh/internal/graph"
	"bcmh/internal/mcmc"
	"bcmh/internal/rng"
	"bcmh/internal/sampler"
	"bcmh/internal/stats"
)

// epsDefault/deltaDefault are the (ε,δ) used wherever an experiment
// needs a concrete guarantee level.
const (
	epsDefault   = 0.01
	deltaDefault = 0.1
)

// RunT1 prints the dataset inventory (Table T1).
func RunT1(w io.Writer, s Scale, seed uint64) error {
	t := NewTable("T1: dataset inventory ("+s.String()+" scale)",
		"name", "family", "n", "m", "max-deg", "diam(approx)")
	r := rng.New(seed)
	for _, d := range Datasets() {
		g := d.Build(s, seed)
		t.Add(d.Name, d.Family, g.N(), g.M(), g.MaxDegree(),
			graph.ApproxDiameter(g, r.Split(d.Name), 2))
	}
	t.Note("diameters are double-sweep lower bounds (exact on trees)")
	_, err := t.WriteTo(w)
	return err
}

// runBC runs one betweenness chain of cfg on g through mcmc.Run.
func runBC(g *graph.Graph, target int, cfg mcmc.Config, seed uint64) (mcmc.Result, error) {
	m, err := mcmc.Run(context.Background(), g, mcmc.BC(target), cfg, seed, 1, nil)
	return m.Combined, err
}

// t2Datasets are the graphs the headline single-vertex table uses.
var t2Datasets = []string{"karate", "ba", "er", "grid"}

// RunT2 prints the headline single-vertex accuracy table (T2): for
// vertices at several BC ranks, the MH estimates next to exact values,
// at the Eq. 14 budget (capped).
func RunT2(w io.Writer, s Scale, seed uint64) error {
	t := NewTable("T2: single-vertex MH estimation at the Eq.14 budget (capped)",
		"graph", "vertex", "rank", "exact-BC", "mu", "T", "chain-avg", "err",
		"harmonic", "err(h)", "accept", "ms")
	cap := s.pick(20000, 60000)
	for _, name := range t2Datasets {
		d, err := DatasetByName(name)
		if err != nil {
			return err
		}
		g := d.Build(s, seed)
		bc := brandes.BCParallel(g, 0)
		for _, tgt := range PickTargets(g, bc, 0.5, 0.9) {
			ms, err := mcmc.MuExact(g, tgt.Vertex)
			if err != nil {
				return err
			}
			steps := mcmc.PlanSteps(epsDefault, deltaDefault, math.Max(ms.Mu, 0.1))
			if steps > cap {
				steps = cap
			}
			start := time.Now()
			res, err := runBC(g, tgt.Vertex, mcmc.DefaultConfig(steps), seed+uint64(tgt.Vertex))
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			t.Add(name, tgt.Vertex, tgt.Label, tgt.BC, ms.Mu, steps,
				res.ChainAverage, math.Abs(res.ChainAverage-tgt.BC),
				res.Harmonic, math.Abs(res.Harmonic-tgt.BC),
				res.AcceptanceRate, float64(elapsed.Milliseconds()))
		}
	}
	t.Note("chain-avg is the paper's estimator (standard-MH counting); err is vs exact BC")
	t.Note("the err column includes the asymptotic bias E_pi[f]-BC — see T3/T10")
	_, err := t.WriteTo(w)
	return err
}

// f1Estimators enumerates the estimator series of figure F1.
var f1Estimators = []string{"mh-chain", "mh-harmonic", "proposal-side", "uniform[2]", "distance[13]", "RK[30]", "bb-BFS[7]"}

// RunF1 prints the error-vs-budget series (Figure F1) for every
// estimator on the scale-free and homogeneous workloads.
func RunF1(w io.Writer, s Scale, seed uint64) error {
	budgets := []int{32, 64, 128, 256, 512, 1024, 2048}
	if s == Full {
		budgets = append(budgets, 4096)
	}
	reps := s.pick(10, 20)
	for _, name := range []string{"ba", "er"} {
		d, err := DatasetByName(name)
		if err != nil {
			return err
		}
		g := d.Build(s, seed)
		bc := brandes.BCParallel(g, 0)
		tgt := PickTargets(g, bc, 0.5)[0] // top vertex
		headers := append([]string{"T"}, f1Estimators...)
		cells := make([]any, len(headers))
		t := NewTable(fmt.Sprintf("F1: mean abs error vs budget, %s, target=top vertex %d (exact BC %.4g, %d reps)",
			name, tgt.Vertex, tgt.BC, reps), headers...)
		for _, budget := range budgets {
			cells[0] = budget
			for i, est := range f1Estimators {
				cells[i+1] = meanAbsError(g, tgt.Vertex, tgt.BC, est, budget, reps, seed)
			}
			t.Add(cells...)
		}
		t.Note("mh-chain error flattens at the bias floor; unbiased estimators keep shrinking ~1/sqrt(T)")
		if _, err := t.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

// meanAbsError runs one estimator `reps` times at the given budget and
// returns the mean |estimate − exact|.
func meanAbsError(g *graph.Graph, target int, exact float64, estimator string, budget, reps int, seed uint64) float64 {
	var acc stats.Welford
	for rep := 0; rep < reps; rep++ {
		repSeed := seed ^ (uint64(rep+1) * 0x9e3779b97f4a7c15)
		r := rng.New(repSeed)
		var est float64
		switch estimator {
		case "mh-chain", "mh-harmonic", "proposal-side":
			res, err := runBC(g, target, mcmc.DefaultConfig(budget), repSeed)
			if err != nil {
				panic(err)
			}
			switch estimator {
			case "mh-chain":
				est = res.ChainAverage
			case "mh-harmonic":
				est = res.Harmonic
			default:
				est = res.ProposalSide
			}
		case "uniform[2]":
			u, err := sampler.NewUniformSource(g, target)
			if err != nil {
				panic(err)
			}
			est = u.Estimate(budget, r)
		case "distance[13]":
			ds, err := sampler.NewDistanceSource(g, target)
			if err != nil {
				panic(err)
			}
			est = ds.Estimate(budget, r)
		case "RK[30]":
			k, err := sampler.NewRK(g, target)
			if err != nil {
				panic(err)
			}
			est = k.Estimate(budget, r)
		case "bb-BFS[7]":
			k, err := sampler.NewKadabraLite(g, target)
			if err != nil {
				panic(err)
			}
			est = k.Estimate(budget, r)
		default:
			panic("exp: unknown estimator " + estimator)
		}
		acc.Add(math.Abs(est - exact))
	}
	return acc.Mean()
}

// RunT3 prints the μ(r) anatomy and bias-floor table (T3).
func RunT3(w io.Writer, s Scale, seed uint64) error {
	t := NewTable("T3: mu(r) anatomy and the chain-average bias floor",
		"graph", "vertex", "rank", "exact-BC", "mu", "T(eq14)", "chain-limit", "bias", "bias/BC")
	for _, name := range []string{"ba", "er", "grid", "ws"} {
		d, err := DatasetByName(name)
		if err != nil {
			return err
		}
		g := d.Build(s, seed)
		bc := brandes.BCParallel(g, 0)
		for _, tgt := range PickTargets(g, bc, 0.5, 0.9) {
			ms, err := mcmc.MuExact(g, tgt.Vertex)
			if err != nil {
				return err
			}
			relBias := math.NaN()
			if tgt.BC > 0 {
				relBias = ms.Bias / tgt.BC
			}
			t.Add(name, tgt.Vertex, tgt.Label, tgt.BC, ms.Mu,
				mcmc.PlanSteps(epsDefault, deltaDefault, math.Max(ms.Mu, 1e-9)),
				ms.ChainLimit, ms.Bias, relBias)
		}
	}
	t.Note("chain-limit = E_pi[f] = sum(delta^2)/((n-1)sum(delta)); bias = chain-limit - BC")
	t.Note("Eq.14's T guards deviation from chain-limit, NOT from BC")
	_, err := t.WriteTo(w)
	return err
}

// RunF2 prints the empirical (ε,δ)-coverage curve against Theorem 1's
// bound (Figure F2).
func RunF2(w io.Writer, s Scale, seed uint64) error {
	reps := s.pick(60, 150)
	eps := 0.05
	// Star: δ constant on its support, μ ≈ 1 — the friendliest case,
	// where the bound is informative at small T.
	g := graph.Star(s.pick(60, 200))
	ms, err := mcmc.MuExact(g, 0)
	if err != nil {
		return err
	}
	t := NewTable(fmt.Sprintf("F2: empirical coverage vs Theorem-1 bound, star center (mu=%.3f, eps=%.2f, %d reps)",
		ms.Mu, eps, reps),
		"T", "bound(eq12)", "P[|err-vs-limit|>eps]", "P[|err-vs-BC|>eps]")
	for _, T := range []int{100, 200, 400, 800, 1600, 3200} {
		errsLimit := make([]float64, 0, reps)
		errsBC := make([]float64, 0, reps)
		for rep := 0; rep < reps; rep++ {
			res, err := runBC(g, 0, mcmc.DefaultConfig(T), seed^(uint64(rep+13)*0x9e3779b97f4a7c15))
			if err != nil {
				return err
			}
			errsLimit = append(errsLimit, res.ChainAverage-ms.ChainLimit)
			errsBC = append(errsBC, res.ChainAverage-ms.BC)
		}
		t.Add(T, mcmc.TheoremOneBound(T, eps, ms.Mu),
			stats.EmpiricalCoverage(errsLimit, eps),
			stats.EmpiricalCoverage(errsBC, eps))
	}
	t.Note("vs-limit coverage must stay below the bound (Theorem 1 as proved)")
	t.Note("vs-BC coverage exposes the bias: here limit-BC = BC/(n-1), small; see T3 for graphs where it is not")
	_, err = t.WriteTo(w)
	return err
}

// RunT4 prints the Theorem-2 separator scaling table (T4).
func RunT4(w io.Writer, s Scale, seed uint64) error {
	t := NewTable("T4: Theorem 2 — mu(r) vs n for balanced and unbalanced separators",
		"family", "n", "mu(balanced sep)", "mu(unbalanced hub)")
	sizes := []int{50, 100, 200, 400}
	if s == Full {
		sizes = append(sizes, 800)
	}
	for _, k := range sizes {
		// Balanced: star-of-cliques center (components all Θ(n)).
		gBal := graph.StarOfCliques(4, k)
		msBal, err := mcmc.MuExact(gBal, 0)
		if err != nil {
			return err
		}
		// Unbalanced: double-star hub with only 2 leaves of its own.
		gUnb := graph.DoubleStar(2, 4*k)
		msUnb, err := mcmc.MuExact(gUnb, 0)
		if err != nil {
			return err
		}
		t.Add("cliquestar/doublestar", gBal.N(), msBal.Mu, msUnb.Mu)
	}
	t.Note("balanced column stays O(1) (Theorem 2 bound 1+1/K=2 here); unbalanced grows with n")
	_, err := t.WriteTo(w)
	return err
}
