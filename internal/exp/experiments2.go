package exp

import (
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

// relTargets picks a spread of positive-BC vertices for the joint
// experiments.
func relTargets(g *graph.Graph, bc []float64, k int) []int {
	qs := make([]float64, 0, k-1)
	for i := 1; i < k; i++ {
		qs = append(qs, float64(i)/float64(2*k)) // top half of the ranking
	}
	classes := PickTargets(g, bc, qs...)
	out := make([]int, 0, k)
	seen := map[int]bool{}
	for _, c := range classes {
		if !seen[c.Vertex] && c.BC > 0 {
			seen[c.Vertex] = true
			out = append(out, c.Vertex)
		}
	}
	return out
}

// RunT5 prints the joint-space ratio accuracy table (T5): Eq. 22's
// BC(ri)/BC(rj) estimates against exact ratios as the budget grows.
func RunT5(w io.Writer, s Scale, seed uint64) error {
	d, err := DatasetByName("ba")
	if err != nil {
		return err
	}
	g := d.Build(s, seed)
	bc := brandes.BCParallel(g, 0)
	R := relTargets(g, bc, 6)
	gt, err := mcmc.ExactRelative(g, R)
	if err != nil {
		return err
	}
	budgets := []int{2000, 8000, 32000}
	if s == Full {
		budgets = append(budgets, 96000)
	}
	t := NewTable(fmt.Sprintf("T5: joint-space ratio estimation (Eq.22), ba, |R|=%d", len(R)),
		"T(joint)", "mean-rel-err(ratio)", "max-rel-err", "accept", "min|M(j)|")
	for _, budget := range budgets {
		res, err := mcmc.EstimateRelative(g, R, mcmc.DefaultJointConfig(budget), rng.New(seed+uint64(budget)))
		if err != nil {
			return err
		}
		var acc stats.Welford
		maxErr := 0.0
		for i := range R {
			for j := range R {
				if i == j || math.IsNaN(gt.Ratio[i][j]) {
					continue
				}
				re := math.Abs(res.RatioEst[i][j]-gt.Ratio[i][j]) / gt.Ratio[i][j]
				if math.IsNaN(re) {
					re = 1 // an undefined estimate counts as total error
				}
				acc.Add(re)
				if re > maxErr {
					maxErr = re
				}
			}
		}
		minM := res.MSize[0]
		for _, m := range res.MSize {
			if m < minM {
				minM = m
			}
		}
		t.Add(budget, acc.Mean(), maxErr, res.AcceptanceRate, minM)
	}
	t.Note("ratio error shrinks with T and has NO bias floor: Theorem 3 (Bennett identity) is exact")
	_, err = t.WriteTo(w)
	return err
}

// RunF3 prints the relative-score convergence series (Figure F3),
// exposing that the M(j) average converges to the weighted limit, not
// to Eq. 23's uniform average.
func RunF3(w io.Writer, s Scale, seed uint64) error {
	d, err := DatasetByName("ba")
	if err != nil {
		return err
	}
	g := d.Build(s, seed)
	bc := brandes.BCParallel(g, 0)
	R := relTargets(g, bc, 3)[:2]
	gt, err := mcmc.ExactRelative(g, R)
	if err != nil {
		return err
	}
	budgets := []int{1000, 4000, 16000, 64000}
	if s == Full {
		budgets = append(budgets, 192000)
	}
	t := NewTable(fmt.Sprintf("F3: relative-score convergence, ba, R={%d,%d}: weighted limit %.4g vs Eq.23 %.4g",
		R[0], R[1], gt.WeightedLimit[0][1], gt.Eq23[0][1]),
		"T(joint)", "|M(j)|", "RelScore(0,1)", "|.-weighted-limit|", "|.-Eq23|")
	for _, budget := range budgets {
		res, err := mcmc.EstimateRelative(g, R, mcmc.DefaultJointConfig(budget), rng.New(seed+uint64(budget)*3))
		if err != nil {
			return err
		}
		sc := res.RelScore[0][1]
		t.Add(budget, res.MSize[1], sc,
			math.Abs(sc-gt.WeightedLimit[0][1]), math.Abs(sc-gt.Eq23[0][1]))
	}
	t.Note("the estimator converges to the weighted limit; its distance to Eq.23 stalls at the definition gap")
	_, err = t.WriteTo(w)
	return err
}

// RunT6 prints the ranking-quality table (T6): how well each method
// orders a candidate set R at equal traversal budget.
func RunT6(w io.Writer, s Scale, seed uint64) error {
	t := NewTable("T6: ranking a candidate set R (|R|=12) at equal traversal budget",
		"graph", "budget", "method", "kendall-tau", "spearman", "top4-overlap")
	budget := s.pick(3000, 8000)
	reps := s.pick(3, 5)
	for _, name := range []string{"ba", "ws"} {
		d, err := DatasetByName(name)
		if err != nil {
			return err
		}
		g := d.Build(s, seed)
		bc := brandes.BCParallel(g, 0)
		R := relTargets(g, bc, 12)
		exactR := make([]float64, len(R))
		for i, v := range R {
			exactR[i] = bc[v]
		}
		type method struct {
			name string
			run  func(rep int) []float64
		}
		methods := []method{
			{"joint-MH(Eq.22)", func(rep int) []float64 {
				res, err := mcmc.EstimateRelative(g, R, mcmc.DefaultJointConfig(budget), rng.New(seed+uint64(rep)*17))
				if err != nil {
					panic(err)
				}
				// Score each candidate by its estimated ratio against
				// the reference with the largest sub-chain (most
				// reliable denominator).
				ref := 0
				for j := range res.MSize {
					if res.MSize[j] > res.MSize[ref] {
						ref = j
					}
				}
				out := make([]float64, len(R))
				for i := range R {
					out[i] = res.RatioEst[i][ref]
					if math.IsNaN(out[i]) {
						out[i] = 0
					}
				}
				return out
			}},
			{"uniform[2]-all", func(rep int) []float64 {
				u, err := sampler.NewUniformSource(g, 0)
				if err != nil {
					panic(err)
				}
				all := u.EstimateAll(budget, rng.New(seed+uint64(rep)*31))
				out := make([]float64, len(R))
				for i, v := range R {
					out[i] = all[v]
				}
				return out
			}},
			{"RK[30]-all", func(rep int) []float64 {
				k, err := sampler.NewRK(g, 0)
				if err != nil {
					panic(err)
				}
				all := k.EstimateAll(budget, rng.New(seed+uint64(rep)*43))
				out := make([]float64, len(R))
				for i, v := range R {
					out[i] = all[v]
				}
				return out
			}},
		}
		for _, m := range methods {
			var tau, rho, overlap stats.Welford
			for rep := 0; rep < reps; rep++ {
				scores := m.run(rep)
				tau.Add(stats.KendallTau(scores, exactR))
				rho.Add(stats.Spearman(scores, exactR))
				overlap.Add(stats.TopKOverlap(scores, exactR, 4))
			}
			t.Add(name, budget, m.name, tau.Mean(), rho.Mean(), overlap.Mean())
		}
	}
	t.Note("budget = traversals for source samplers, path samples for RK, joint steps for MH")
	_, err := t.WriteTo(w)
	return err
}

// RunT7 prints the runtime table (T7): per-sample cost scaling and the
// crossover against exact Brandes.
func RunT7(w io.Writer, s Scale, seed uint64) error {
	t := NewTable("T7: per-sample cost and crossover vs exact Brandes",
		"n", "m", "mh-us/step(cached)", "mh-us/step(nocache)", "uniform-us", "rk-us", "bbbfs-us",
		"brandes-ms", "crossover-samples")
	sizes := []int{1000, 2000, 4000}
	if s == Full {
		sizes = append(sizes, 8000)
	}
	for _, n := range sizes {
		g := graph.BarabasiAlbert(n, 3, rng.New(seed))
		target := 0
		for v := 1; v < g.N(); v++ {
			if g.Degree(v) > g.Degree(target) {
				target = v
			}
		}
		const steps = 400
		perStep := func(disableCache bool) float64 {
			cfg := mcmc.DefaultConfig(steps)
			cfg.DisableCache = disableCache
			start := time.Now()
			if _, err := runBC(g, target, cfg, seed+1); err != nil {
				panic(err)
			}
			return float64(time.Since(start).Microseconds()) / steps
		}
		mhCached := perStep(false)
		mhNoCache := perStep(true)
		u, err := sampler.NewUniformSource(g, target)
		if err != nil {
			return err
		}
		start := time.Now()
		u.Estimate(steps, rng.New(seed+2))
		uniformUS := float64(time.Since(start).Microseconds()) / steps
		k, err := sampler.NewRK(g, target)
		if err != nil {
			return err
		}
		start = time.Now()
		k.Estimate(steps, rng.New(seed+3))
		rkUS := float64(time.Since(start).Microseconds()) / steps
		kl, err := sampler.NewKadabraLite(g, target)
		if err != nil {
			return err
		}
		start = time.Now()
		kl.Estimate(steps, rng.New(seed+4))
		bbUS := float64(time.Since(start).Microseconds()) / steps
		start = time.Now()
		brandes.BC(g)
		brandesMS := float64(time.Since(start).Milliseconds())
		crossover := math.Inf(1)
		if mhNoCache > 0 {
			crossover = brandesMS * 1000 / mhNoCache
		}
		t.Add(g.N(), g.M(), mhCached, mhNoCache, uniformUS, rkUS, bbUS, brandesMS, crossover)
	}
	t.Note("per-sample cost is O(m) for every estimator; bb-BFS touches far fewer edges per sample")
	t.Note("crossover = samples the MH sampler can afford before exact Brandes is cheaper")
	_, err := t.WriteTo(w)
	return err
}

// RunT8 prints the ablation table (T8).
func RunT8(w io.Writer, s Scale, seed uint64) error {
	d, err := DatasetByName("ba")
	if err != nil {
		return err
	}
	g := d.Build(s, seed)
	bc := brandes.BCParallel(g, 0)
	tgt := PickTargets(g, bc)[0]
	steps := s.pick(4000, 12000)
	reps := s.pick(6, 12)
	t := NewTable(fmt.Sprintf("T8: ablations, ba, top vertex %d (exact BC %.4g), T=%d, %d reps",
		tgt.Vertex, tgt.BC, steps, reps),
		"variant", "mean-est", "mean-abs-err", "accept", "evals/step", "note")

	type variant struct {
		name string
		cfg  func() mcmc.Config
		get  func(res mcmc.Result) float64
		note string
	}
	base := func() mcmc.Config { return mcmc.DefaultConfig(steps) }
	variants := []variant{
		{"chain-avg (default)", base, func(r mcmc.Result) float64 { return r.ChainAverage }, "standard MH counting"},
		{"eq7-literal", base, func(r mcmc.Result) float64 { return r.PaperEq7 }, "accepted-only / (T+1)"},
		{"proposal-side", base, func(r mcmc.Result) float64 { return r.ProposalSide }, "free unbiased by-product"},
		{"harmonic", base, func(r mcmc.Result) float64 { return r.Harmonic }, "corrected, consistent for BC"},
		{"burn-in 10%", func() mcmc.Config {
			c := base()
			c.BurnIn = steps / 10
			return c
		}, func(r mcmc.Result) float64 { return r.ChainAverage }, "paper: unnecessary"},
		{"degree proposal", func() mcmc.Config {
			c := base()
			c.DegreeProposal = true
			return c
		}, func(r mcmc.Result) float64 { return r.ChainAverage }, "Hastings-corrected"},
		{"no cache", func() mcmc.Config {
			c := base()
			c.DisableCache = true
			return c
		}, func(r mcmc.Result) float64 { return r.ChainAverage }, "same estimate, more work"},
	}
	for _, v := range variants {
		var est, errAcc, accept, evals stats.Welford
		for rep := 0; rep < reps; rep++ {
			res, err := runBC(g, tgt.Vertex, v.cfg(), seed^(uint64(rep+7)*0x9e3779b97f4a7c15))
			if err != nil {
				return err
			}
			x := v.get(res)
			est.Add(x)
			errAcc.Add(math.Abs(x - tgt.BC))
			accept.Add(res.AcceptanceRate)
			evals.Add(float64(res.Evals) / float64(steps))
		}
		t.Add(v.name, est.Mean(), errAcc.Mean(), accept.Mean(), evals.Mean(), v.note)
	}
	_, err = t.WriteTo(w)
	return err
}

// RunT9 prints the weighted-graph table (T9).
func RunT9(w io.Writer, s Scale, seed uint64) error {
	side := s.pick(16, 26)
	base := graph.Grid(side, side)
	weighted := graph.WithUniformWeights(base, 1, 10, rng.New(seed))
	budget := s.pick(2000, 6000)
	reps := s.pick(5, 10)
	t := NewTable(fmt.Sprintf("T9: weighted graphs (grid %dx%d, U(1,10) weights), budget %d, %d reps",
		side, side, budget, reps),
		"graph", "estimator", "exact-BC", "mean-abs-err", "us/sample")
	for _, row := range []struct {
		label string
		g     *graph.Graph
	}{{"unweighted", base}, {"weighted", weighted}} {
		bc := brandes.BCParallel(row.g, 0)
		tgt := PickTargets(row.g, bc)[0]
		for _, est := range []string{"mh-chain", "mh-harmonic", "uniform[2]", "distance[13]"} {
			start := time.Now()
			mae := meanAbsError(row.g, tgt.Vertex, tgt.BC, est, budget, reps, seed)
			us := float64(time.Since(start).Microseconds()) / float64(budget*reps)
			t.Add(row.label, est, tgt.BC, mae, us)
		}
	}
	t.Note("weighted per-sample cost carries the Dijkstra log-factor; error behaviour is unchanged")
	_, err := t.WriteTo(w)
	return err
}

// RunT10 prints the bias-decomposition table (T10): measured long-chain
// averages against the exact chain limit and exact BC.
func RunT10(w io.Writer, s Scale, seed uint64) error {
	steps := s.pick(30000, 80000)
	t := NewTable(fmt.Sprintf("T10: bias decomposition (chains of T=%d)", steps),
		"graph", "vertex", "rank", "exact-BC", "chain-limit", "measured-avg",
		"|measured-limit|", "n/n+")
	for _, name := range []string{"ba", "grid", "cliquestar"} {
		d, err := DatasetByName(name)
		if err != nil {
			return err
		}
		g := d.Build(s, seed)
		bc := brandes.BCParallel(g, 0)
		for _, tgt := range PickTargets(g, bc, 0.5) {
			ms, err := mcmc.MuExact(g, tgt.Vertex)
			if err != nil {
				return err
			}
			res, err := runBC(g, tgt.Vertex, mcmc.DefaultConfig(steps), seed+uint64(tgt.Vertex)*3)
			if err != nil {
				return err
			}
			nOverPos := math.NaN()
			if ms.PositiveStates > 0 {
				nOverPos = float64(g.N()) / float64(ms.PositiveStates)
			}
			t.Add(name, tgt.Vertex, tgt.Label, tgt.BC, ms.ChainLimit,
				res.ChainAverage, math.Abs(res.ChainAverage-ms.ChainLimit), nOverPos)
		}
	}
	t.Note("measured chain averages sit on the exact chain limit sum(delta^2)/((n-1)sum(delta)), not on BC")
	t.Note("n/n+ is the inherent inflation factor even when delta is constant on its support")
	_, err := t.WriteTo(w)
	return err
}
