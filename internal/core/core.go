// Package core is the library's public facade: stable, validated entry
// points that tie the substrates together. A downstream user estimates
// the betweenness of a vertex, the relative betweenness of a set, or
// exact values, without touching the sampler internals:
//
//	g, _, err := graph.ReadEdgeListFile("net.txt")
//	est, err := core.EstimateBC(g, r, core.Options{Epsilon: 0.01, Delta: 0.1})
//	fmt.Println(est.Value, est.Diagnostics.AcceptanceRate)
//
// Estimation requires a connected undirected graph (the paper's
// setting); Prepare converts arbitrary input by extracting the largest
// connected component. Every estimate is planned and run by
// PlanAndRun, whose chains go through mcmc.Run.
package core

import (
	"context"
	"fmt"

	"bcmh/internal/brandes"
	"bcmh/internal/graph"
	"bcmh/internal/mcmc"
	"bcmh/internal/rng"
)

// DefaultMaxSteps caps planned chain lengths so a pessimistic μ bound
// cannot request an absurd budget; override with Options.MaxSteps.
const DefaultMaxSteps = 1 << 22

// Options configures single-vertex estimation.
type Options struct {
	// Steps fixes the chain length T directly. When zero, T is planned
	// from (Epsilon, Delta) and a μ bound via Eq. 14.
	Steps int
	// Epsilon and Delta specify the (ε,δ)-guarantee used to plan T when
	// Steps is zero. Defaults: 0.01 and 0.1.
	Epsilon, Delta float64
	// MuBound is the μ(r) bound used by the planner. When zero, μ is
	// computed exactly (O(nm) — fine at experiment scale, expensive on
	// big graphs; pass a bound, e.g. Theorem 2's 1+1/K, when you have
	// one).
	MuBound float64
	// MaxSteps caps the planned T (default DefaultMaxSteps).
	MaxSteps int
	// Chains > 1 runs that many independent chains in parallel and
	// pools them; total work is Chains·T traversals.
	Chains int
	// Seed makes the run reproducible. Two runs with equal options and
	// seeds return identical results.
	Seed uint64
	// Estimator selects the reported estimate (default: standard chain
	// average; see mcmc.EstimatorKind for the paper-literal and
	// corrected variants).
	Estimator mcmc.EstimatorKind
	// BurnIn, DegreeProposal, DisableCache pass through to mcmc.Config
	// (ablation knobs; the paper's sampler uses none of them).
	BurnIn         int
	DegreeProposal bool
	DisableCache   bool
	// Adaptive replaces the Eq. 14 fixed-budget plan with the
	// empirical-Bernstein stopping rule (mcmc.Config.AdaptiveEps): the
	// chain monitors its proposal-side stream and stops as soon as the
	// (Epsilon, Delta) confidence half-width is met. Steps — or
	// MaxSteps when Steps is zero — becomes the hard budget, and no μ
	// derivation is needed or consulted. With Adaptive false nothing
	// changes: runs are bit-identical to the pre-adaptive API.
	Adaptive bool
}

func (o *Options) withDefaults() Options {
	out := *o
	// Non-positive values mean "use the default" uniformly, so every
	// way of spelling the same request normalizes to one Options value.
	if out.Steps < 0 {
		out.Steps = 0
	}
	if out.MuBound < 0 {
		out.MuBound = 0
	}
	if out.Epsilon <= 0 {
		out.Epsilon = 0.01
	}
	if out.Delta <= 0 {
		out.Delta = 0.1
	}
	if out.MaxSteps <= 0 {
		out.MaxSteps = DefaultMaxSteps
	}
	if out.Chains < 1 {
		out.Chains = 1
	}
	return out
}

// Validate rejects option values no estimate can use: the Eq. 14 plan
// and the adaptive rule need δ < 1 (non-positive values mean the
// default). Every estimation entry point checks it before any μ work.
func (o Options) Validate() error {
	if o.Delta >= 1 {
		return fmt.Errorf("core: delta %v outside (0,1)", o.Delta)
	}
	return nil
}

// Normalized returns o with every defaulted field resolved to its
// concrete value. Two Options that request the same estimation compare
// equal after Normalized, which is what caches keyed on Options
// (internal/engine) rely on.
func (o Options) Normalized() Options { return o.withDefaults() }

// PlanFromMu returns the chain length EstimateBC plans for a known
// μ(r) under opts: Eq. 14 via mcmc.PlanSteps, clamped to
// [1, opts.MaxSteps]. Exported so batch front-ends can plan steps from
// a cached μ without re-deriving the dependency column. opts must pass
// Validate: the planner panics on δ ≥ 1.
func PlanFromMu(opts Options, mu float64) int {
	o := opts.withDefaults()
	return clampSteps(float64(mcmc.PlanSteps(o.Epsilon, o.Delta, mu)), o.MaxSteps)
}

// clampSteps clamps a planned chain length to [1, maxSteps], in
// floating point so a plan beyond the int range saturates instead of
// wrapping.
func clampSteps(t float64, maxSteps int) int {
	if t >= float64(maxSteps) {
		return maxSteps
	}
	if t < 1 {
		return 1
	}
	return int(t)
}

// Estimate is the result of a single-vertex estimation.
type Estimate struct {
	// Value is the betweenness estimate under the selected estimator.
	Value float64
	// PlannedSteps is the chain length used (per chain).
	PlannedSteps int
	// Chains is the number of pooled chains.
	Chains int
	// MuUsed is the μ value the planner used (0 when Steps was fixed).
	MuUsed float64
	// Diagnostics carries the pooled sampler diagnostics.
	Diagnostics mcmc.Result
	// PerChain holds per-chain results when Chains > 1.
	PerChain []mcmc.Result
}

func validateGraph(g *graph.Graph) error {
	if g == nil {
		return fmt.Errorf("core: nil graph")
	}
	if g.Directed() {
		return fmt.Errorf("core: estimators require an undirected graph")
	}
	if g.N() < 2 {
		return fmt.Errorf("core: graph too small (n=%d)", g.N())
	}
	if !graph.IsConnected(g) {
		return fmt.Errorf("core: graph is not connected; call core.Prepare to extract the largest component")
	}
	return nil
}

// Prepare validates g for estimation, extracting the largest connected
// component if necessary. It returns the usable graph and the mapping
// from its vertex ids to the original ids (nil when g was already
// usable as-is).
func Prepare(g *graph.Graph) (*graph.Graph, []int, error) {
	if g == nil {
		return nil, nil, fmt.Errorf("core: nil graph")
	}
	if g.Directed() {
		return nil, nil, fmt.Errorf("core: estimators require an undirected graph")
	}
	if graph.IsConnected(g) {
		if g.N() < 2 {
			return nil, nil, fmt.Errorf("core: graph too small (n=%d)", g.N())
		}
		return g, nil, nil
	}
	lc, mapping, err := graph.LargestComponent(g)
	if err != nil {
		return nil, nil, err
	}
	if lc.N() < 2 {
		return nil, nil, fmt.Errorf("core: largest component too small (n=%d)", lc.N())
	}
	return lc, mapping, nil
}

// EstimateBC estimates the betweenness centrality of vertex r in g with
// the paper's single-space Metropolis–Hastings sampler (§4.2).
func EstimateBC(g *graph.Graph, r int, opts Options) (Estimate, error) {
	return EstimateBCContext(context.Background(), g, r, opts)
}

// EstimateBCContext is EstimateBC under a context: the chain loop polls
// ctx and aborts with its error on cancellation (see mcmc.Run), so
// callers serving interactive traffic can stop paying for estimates
// nobody is waiting on. A run that completes is bit-identical to
// EstimateBC.
func EstimateBCContext(ctx context.Context, g *graph.Graph, r int, opts Options) (Estimate, error) {
	if err := validateGraph(g); err != nil {
		return Estimate{}, err
	}
	if r < 0 || r >= g.N() {
		return Estimate{}, fmt.Errorf("core: vertex %d out of range [0,%d)", r, g.N())
	}
	if err := opts.Validate(); err != nil {
		return Estimate{}, err
	}
	o := opts.withDefaults()
	mu := o.MuBound
	if !o.Adaptive && o.Steps <= 0 && mu <= 0 {
		ms, err := mcmc.MuExact(g, r)
		if err != nil {
			return Estimate{}, err
		}
		mu = ms.Mu
	}
	return EstimateBCPreparedContext(ctx, g, r, o, mu, nil)
}

// EstimateBCPreparedContext is the estimation kernel behind EstimateBC
// for callers that have already amortised the per-request setup: g
// must be valid for estimation (connected and undirected, e.g. from
// Prepare — only the vertex range is re-checked here), μ is supplied
// when known (a cached MuExact or an analytic bound; ignored when
// opts.Steps is fixed or opts.Adaptive is set), and chain buffers come
// from pool (nil: a private one). See PlanAndRun.
func EstimateBCPreparedContext(ctx context.Context, g *graph.Graph, r int, opts Options, mu float64, pool *mcmc.BufferPool) (Estimate, error) {
	if r < 0 || r >= g.N() {
		return Estimate{}, fmt.Errorf("core: vertex %d out of range [0,%d)", r, g.N())
	}
	return PlanAndRun(ctx, g, opts, mu, pool, func() (mcmc.Source, error) { return mcmc.BC(r), nil })
}

// PlanAndRun is the one plan-and-run body behind every prepared
// estimate (EstimateBCPreparedContext here, measure.EstimatePrepared
// for every measure). It resolves opts and μ into the chain
// configuration: the per-chain step budget (fixed Steps, the Eq. 14
// plan from μ, or, under Adaptive, the hard budget the
// empirical-Bernstein monitor stops within), the ablation knobs and the
// adaptive thresholds. Unplanned steps with μ ≤ 0 mean the statistic
// column is all-zero: the value is exactly 0, and neither source nor
// chain runs. Otherwise it calls source, runs opts.Chains chains of it
// through mcmc.Run under ctx, and packs the Estimate. source is a
// function so a measure builds its per-target state only when a chain
// will read it.
func PlanAndRun(ctx context.Context, g *graph.Graph, opts Options, mu float64, pool *mcmc.BufferPool, source func() (mcmc.Source, error)) (Estimate, error) {
	if err := opts.Validate(); err != nil {
		return Estimate{}, err
	}
	o := opts.withDefaults()
	steps := o.Steps
	var muUsed float64
	switch {
	case o.Adaptive:
		if steps <= 0 {
			steps = o.MaxSteps
		}
	case steps <= 0:
		if mu <= 0 {
			return Estimate{}, nil
		}
		muUsed = mu
		steps = PlanFromMu(o, mu)
	}
	cfg := mcmc.Config{
		Steps:          steps,
		BurnIn:         o.BurnIn,
		Estimator:      o.Estimator,
		DegreeProposal: o.DegreeProposal,
		DisableCache:   o.DisableCache,
		InitState:      -1,
	}
	if o.Adaptive {
		cfg.AdaptiveEps = o.Epsilon
		cfg.AdaptiveDelta = o.Delta
	}
	src, err := source()
	if err != nil {
		return Estimate{}, err
	}
	multi, err := mcmc.Run(ctx, g, src, cfg, o.Seed, o.Chains, pool)
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{
		Value:        multi.Combined.Estimate,
		PlannedSteps: cfg.Steps,
		Chains:       o.Chains,
		MuUsed:       muUsed,
		Diagnostics:  multi.Combined,
		PerChain:     multi.PerChain,
	}, nil
}

// RelOptions configures joint-space relative estimation.
type RelOptions struct {
	// Steps is the joint chain length T; when zero it is planned from
	// (Epsilon, Delta, MuBound) exactly like Options, per Eq. 27, using
	// the largest μ(r) over R when MuBound is zero. Note Eq. 27 bounds
	// |M(j)|, the per-target sub-chain length; the planner multiplies
	// by |R| so the expected sub-chain budget matches.
	Steps          int
	Epsilon, Delta float64
	MuBound        float64
	MaxSteps       int
	Seed           uint64
	BurnIn         int
	DisableCache   bool
}

// EstimateRelative estimates relative betweenness scores and betweenness
// ratios for the vertex set R with the paper's joint-space sampler
// (§4.3).
func EstimateRelative(g *graph.Graph, R []int, opts RelOptions) (mcmc.JointResult, error) {
	if err := validateGraph(g); err != nil {
		return mcmc.JointResult{}, err
	}
	if opts.Delta >= 1 {
		return mcmc.JointResult{}, fmt.Errorf("core: delta %v outside (0,1)", opts.Delta)
	}
	o := opts
	if o.Epsilon <= 0 {
		o.Epsilon = 0.01
	}
	if o.Delta <= 0 {
		o.Delta = 0.1
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = DefaultMaxSteps
	}
	steps := o.Steps
	if steps <= 0 {
		mu := o.MuBound
		if mu <= 0 {
			for _, r := range R {
				ms, err := mcmc.MuExact(g, r)
				if err != nil {
					return mcmc.JointResult{}, err
				}
				if ms.Mu > mu {
					mu = ms.Mu
				}
			}
		}
		if mu <= 0 {
			return mcmc.JointResult{}, fmt.Errorf("core: every target in R has zero betweenness; relative scores are undefined")
		}
		steps = clampSteps(float64(mcmc.PlanSteps(o.Epsilon, o.Delta, mu))*float64(len(R)), o.MaxSteps)
	}
	cfg := mcmc.JointConfig{
		Steps:        steps,
		BurnIn:       o.BurnIn,
		DisableCache: o.DisableCache,
		InitR:        -1,
		InitV:        -1,
	}
	return mcmc.EstimateRelative(g, R, cfg, rng.New(o.Seed))
}

// ExactBC computes exact betweenness for every vertex (parallel
// Brandes). Prefer this over sampling when n is small enough that O(nm)
// is affordable.
func ExactBC(g *graph.Graph) ([]float64, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if g.Directed() {
		return nil, fmt.Errorf("core: ExactBC requires an undirected graph")
	}
	return brandes.BCParallel(g, 0), nil
}

// ExactBCOf computes the exact betweenness of a single vertex.
func ExactBCOf(g *graph.Graph, r int) (float64, error) {
	if g == nil {
		return 0, fmt.Errorf("core: nil graph")
	}
	if r < 0 || r >= g.N() {
		return 0, fmt.Errorf("core: vertex %d out of range", r)
	}
	return brandes.BCOfVertexExact(g, r), nil
}

// Mu computes the exact concentration profile μ(r) and related
// quantities (Theorems 1–2 machinery). O(nm).
func Mu(g *graph.Graph, r int) (mcmc.MuStats, error) {
	if err := validateGraph(g); err != nil {
		return mcmc.MuStats{}, err
	}
	return mcmc.MuExact(g, r)
}
