package exp

import (
	"io"
	"math"
	"strconv"
	"time"

	"bcmh/internal/brandes"
	"bcmh/internal/mcmc"
	"bcmh/internal/rng"
	"bcmh/internal/sampler"
	"bcmh/internal/stats"
)

// RunT11 prints the other-indices extension table (T11): the paper's
// conclusion proposes applying the MH technique to further
// shortest-path indices; this measures the stress-centrality chain
// against exact stress, next to the corrected estimators.
func RunT11(w io.Writer, s Scale, seed uint64) error {
	steps := s.pick(8000, 30000)
	t := NewTable("T11: stress-centrality via the MH chain (conclusion's other-indices extension)",
		"graph", "vertex", "rank", "exact-stress", "proposal-side", "rel-err", "harmonic", "rel-err(h)", "accept")
	for _, name := range []string{"karate", "ba", "grid"} {
		d, err := DatasetByName(name)
		if err != nil {
			return err
		}
		g := d.Build(s, seed)
		bc := brandes.BCParallel(g, 0)
		for _, tgt := range PickTargets(g, bc, 0.5) {
			exact := brandes.StressOfVertexExact(g, tgt.Vertex)
			res, err := mcmc.EstimateStress(g, tgt.Vertex, steps, seed+uint64(tgt.Vertex)*7)
			if err != nil {
				return err
			}
			t.Add(name, tgt.Vertex, tgt.Label, exact,
				res.ProposalSide, stats.RelError(res.ProposalSide, exact),
				res.Harmonic, stats.RelError(res.Harmonic, exact),
				res.AcceptanceRate)
		}
	}
	t.Note("stress = raw ordered-pair shortest-path counts; same chain machinery, different dependency oracle")
	_, err := t.WriteTo(w)
	return err
}

// RunT12 prints the adaptive-sampling table (T12): the progressive
// empirical-Bernstein sampler (ABRA-style [31]) against the fixed
// Hoeffding and Eq. 14 budgets, at matched (ε,δ).
func RunT12(w io.Writer, s Scale, seed uint64) error {
	eps := 0.01
	delta := 0.1
	maxSamples := s.pick(60000, 200000)
	t := NewTable("T12: adaptive (empirical-Bernstein) sampling vs fixed budgets, eps=0.01 delta=0.1",
		"graph", "vertex", "rank", "exact-BC", "adaptive-samples", "certified", "abs-err",
		"hoeffding-T", "eq14-T(mu exact)", "wall-ms")
	for _, name := range []string{"ba", "grid"} {
		d, err := DatasetByName(name)
		if err != nil {
			return err
		}
		g := d.Build(s, seed)
		bc := brandes.BCParallel(g, 0)
		for _, tgt := range PickTargets(g, bc, 0.5) {
			a, err := sampler.NewAdaptive(g, tgt.Vertex)
			if err != nil {
				return err
			}
			start := time.Now()
			res, err := a.Run(eps, delta, 0, maxSamples, rng.New(seed+uint64(tgt.Vertex)*11))
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			ms, err := mcmc.MuExact(g, tgt.Vertex)
			if err != nil {
				return err
			}
			eq14 := "n/a"
			if ms.Mu > 0 {
				eq14 = strconv.Itoa(mcmc.PlanSteps(eps, delta, ms.Mu))
			}
			t.Add(name, tgt.Vertex, tgt.Label, tgt.BC,
				res.Samples, res.Certified, math.Abs(res.Estimate-tgt.BC),
				stats.HoeffdingN(eps, delta), eq14, float64(elapsed.Milliseconds()))
		}
	}
	t.Note("adaptive stops when the data certifies eps; variance-adaptive budgets undercut both fixed plans on easy targets")
	_, err := t.WriteTo(w)
	return err
}
