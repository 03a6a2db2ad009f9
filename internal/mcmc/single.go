package mcmc

import (
	"context"
	"errors"
	"fmt"
	"math"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
)

// cancelCheckInterval is how many chain steps pass between context
// cancellation checks inside the step loop. Memo-hit steps cost a few
// nanoseconds, so checking every step would be measurable; the loop
// additionally checks after every full dependency evaluation (memo
// miss), whose BFS dwarfs the check, so the abort latency is bounded
// by max(256 memo-hit steps, one dependency evaluation).
const cancelCheckInterval = 256

// ErrNonFinite is wrapped by every chain run and μ derivation that
// evaluated a NaN or ±Inf dependency value. Shortest-path counts σ past
// float64's range produce them (σ = +Inf makes a pair's σ ratio
// Inf/Inf), and no estimate or μ built on one means anything.
var ErrNonFinite = errors.New("non-finite dependency value (shortest-path counts exceed float64's range)")

// nonFinite reports whether d is NaN or ±Inf.
func nonFinite(d float64) bool { return math.IsNaN(d) || math.IsInf(d, 0) }

// EstimatorKind selects which estimate a Result reports as its primary
// Estimate. All variants are computed on every run (they share the
// chain), so switching kinds re-reads the same Result fields.
type EstimatorKind int

const (
	// EstimatorChainAverage is the standard MH estimator: f averaged
	// over every chain state, a rejected step repeating the current
	// state. This is the estimator the bound of [23] actually concerns
	// and the default.
	EstimatorChainAverage EstimatorKind = iota
	// EstimatorPaperEq7 is the paper's Eq. 7 read literally: f summed
	// over the multiset of accepted states (initial state included)
	// and divided by T+1.
	EstimatorPaperEq7
	// EstimatorProposalSide averages f over the uniformly proposed
	// states — the acceptance test evaluates δ there anyway, so this
	// unbiased estimate (identical in distribution to the uniform
	// source sampler [2]) is free. Unlike the chain average, whose
	// limit is MuStats.ChainLimit, it converges to BC(r).
	EstimatorProposalSide
	// EstimatorHarmonic is the corrected consistent estimator of BC(r):
	// with the chain stationary at π ∝ δ, E_π[1/δ] = n⁺/Σδ, and n⁺/n is
	// estimated from the proposal stream; then BC(r) = Σδ/(n(n-1)).
	// An extension beyond the paper, off by default.
	EstimatorHarmonic
)

// String returns the table label of the estimator kind.
func (k EstimatorKind) String() string {
	switch k {
	case EstimatorChainAverage:
		return "chain-avg"
	case EstimatorPaperEq7:
		return "eq7-literal"
	case EstimatorProposalSide:
		return "proposal-side"
	case EstimatorHarmonic:
		return "harmonic"
	default:
		return fmt.Sprintf("EstimatorKind(%d)", int(k))
	}
}

// Config parameterises the single-space sampler. The zero value is not
// valid: Steps must be positive. Defaults chosen by DefaultConfig match
// the paper (uniform proposal, no burn-in, chain-average estimator,
// memoised chain).
type Config struct {
	// Steps is T, the number of MH iterations; the chain visits T+1
	// states (Eq. 7's normalisation).
	Steps int
	// BurnIn discards this many leading chain states from all chain
	// averages. The paper proves no burn-in is needed (Inequality 12
	// holds from any initial state); nonzero values exist for the
	// ablation T8c.
	BurnIn int
	// Estimator selects the primary estimate (see EstimatorKind).
	Estimator EstimatorKind
	// DegreeProposal proposes states proportionally to degree instead
	// of uniformly (ablation T8b). The proposal-side estimate is
	// importance-corrected accordingly; the chain's acceptance rule is
	// Hastings-corrected so the stationary distribution is unchanged.
	DegreeProposal bool
	// DisableCache turns off dependency memoisation (ablation T8d).
	DisableCache bool
	// InitState fixes the initial state; -1 (default) draws it
	// uniformly at random.
	InitState int
	// CollectFTrace records the raw f(v_t) value of every counted chain
	// state into Result.FTrace, feeding the rank package's batch-means
	// interval estimates. One float64 per step of memory.
	CollectFTrace bool
	// CollectProposalTrace records the (importance-weighted) f value of
	// every proposed state into Result.ProposalFTrace — the sample
	// stream behind the ProposalSide estimator. Unlike the chain trace
	// these samples are iid (proposals are drawn independently), so
	// their mean is an unbiased estimate of BC(r) and plain √(Var/T)
	// standard errors apply; internal/rank's confidence intervals are
	// built on this stream. One float64 per step of memory.
	CollectProposalTrace bool
	// AdaptiveEps, when positive, arms the empirical-Bernstein stopping
	// rule (Audibert–Munos–Szepesvári / Maurer–Pontil style, per the
	// follow-up paper arXiv:1810.10094): the proposal-side sample
	// stream — iid, so concentration applies cleanly — is monitored at
	// geometrically spaced checkpoints, and the chain stops as soon as
	// the variance-adaptive half-width drops to AdaptiveEps, instead of
	// always running the μ-planned worst-case budget. Steps then acts
	// as the hard budget the rule may undercut. Zero (the default)
	// disables the rule; a disabled run is bit-identical to one built
	// before the rule existed — the monitor adds no RNG draws.
	AdaptiveEps float64
	// AdaptiveDelta is the failure probability the adaptive rule's
	// confidence sequence spends across its checkpoints (default 0.1;
	// only read when AdaptiveEps is positive).
	AdaptiveDelta float64
}

// DefaultConfig returns the paper-faithful configuration with the given
// number of steps.
func DefaultConfig(steps int) Config {
	return Config{Steps: steps, InitState: -1}
}

// Result carries every estimate and diagnostic from one run.
type Result struct {
	// Estimate is the estimator selected by Config.Estimator.
	Estimate float64
	// ChainAverage, PaperEq7, ProposalSide, Harmonic are the individual
	// estimator variants (always all computed).
	ChainAverage float64
	PaperEq7     float64
	ProposalSide float64
	Harmonic     float64

	// AcceptanceRate is accepted transitions / Steps.
	AcceptanceRate float64
	// UniqueStates is the number of distinct vertices the chain visited.
	UniqueStates int
	// Evals counts memo misses, each one evaluation of δ: a traversal
	// and kernel scan, a row scan on a run through a SourceRows table,
	// or a read of a parked μ column. CacheHits counts memo hits.
	Evals     int
	CacheHits int
	// MaxDepSeen and MeanDepProposal support the empirical μ̂ lower
	// bound: max δ over every state evaluated, and the unbiased mean of
	// δ over uniform proposals. MuHat = MaxDepSeen/MeanDepProposal.
	MaxDepSeen      float64
	MeanDepProposal float64
	// FTrace holds f(v_t) for every counted chain state (nil unless
	// Config.CollectFTrace was set).
	FTrace []float64
	// ProposalFTrace holds the importance-weighted f of every proposed
	// state (nil unless Config.CollectProposalTrace was set); its mean
	// is Result.ProposalSide.
	ProposalFTrace []float64

	// StepsRun is the number of MH iterations actually executed: equal
	// to Config.Steps unless the adaptive stopping rule fired first.
	StepsRun int
	// Converged reports whether the adaptive stopping rule fired before
	// the step budget ran out (always false when the rule is disabled).
	Converged bool
	// EBHalfWidth is the empirical-Bernstein half-width at the last
	// checkpoint evaluated (zero when the rule is disabled or no
	// checkpoint was reached).
	EBHalfWidth float64
}

// MuHat returns the empirical lower-bound estimate of μ(target):
// max observed dependency over the unbiased mean dependency. Zero when
// no dependency mass was seen.
func (r *Result) MuHat() float64 {
	if r.MeanDepProposal <= 0 {
		return 0
	}
	return r.MaxDepSeen / r.MeanDepProposal
}

func (c *Config) validate(n int) error {
	if c.Steps <= 0 {
		return fmt.Errorf("mcmc: Steps must be positive, got %d", c.Steps)
	}
	if c.BurnIn < 0 || c.BurnIn > c.Steps {
		return fmt.Errorf("mcmc: BurnIn %d out of [0, Steps=%d]", c.BurnIn, c.Steps)
	}
	if c.InitState >= n {
		return fmt.Errorf("mcmc: InitState %d out of range (n=%d)", c.InitState, n)
	}
	if c.AdaptiveEps < 0 {
		return fmt.Errorf("mcmc: AdaptiveEps must be non-negative")
	}
	if c.AdaptiveDelta < 0 || c.AdaptiveDelta >= 1 {
		return fmt.Errorf("mcmc: AdaptiveDelta must be in [0,1)")
	}
	return nil
}

// StatOracle is the per-state statistic evaluator a chain runs
// against: Dep(v) computes the non-negative per-vertex score d_v (for
// betweenness, δ_v•(r)) that both the acceptance ratio and the
// estimators read. It does no memoisation of its own: the chain loop
// memoises every Dep value and counts Result.Evals and CacheHits. The
// BC Oracle implements it natively; measure packages plug alternative
// centralities into the same chain loop by implementing this interface
// and running it as a Stat source — every estimator variant, the
// adaptive stopping rule, and the μ̂ diagnostics carry over unchanged
// because they only ever see Dep values.
type StatOracle interface {
	Dep(v int) float64
}

// adaptiveFirstCheck is the first empirical-Bernstein checkpoint;
// later checkpoints double (64, 128, 256, ...), so the monitor's cost
// is O(log T) half-width computations per chain.
const adaptiveFirstCheck = 64

// ebHalfWidth is the empirical-Bernstein half-width for t iid samples
// in [0, rng] with empirical variance v and per-checkpoint failure
// probability delta (Maurer–Pontil, Theorem 4 shape):
// sqrt(2·v·ln(3/δ)/t) + 3·rng·ln(3/δ)/t.
func ebHalfWidth(v float64, t int, rng, delta float64) float64 {
	if t <= 0 {
		return math.Inf(1)
	}
	l := math.Log(3 / delta)
	return math.Sqrt(2*v*l/float64(t)) + 3*rng*l/float64(t)
}

// f(v) = δ_v•(r)/(n-1): the paper's per-state statistic, ∈ [0,1).
func fOf(dep float64, n int) float64 { return dep / float64(n-1) }

// acceptMH returns whether to move given current and proposed
// dependency scores, with these zero-state conventions:
// δ'>0,δ=0 → accept (ratio ∞); δ'=0,δ>0 → reject (ratio 0);
// 0/0 → accept (the chain must escape zero-mass states).
func acceptMH(depCur, depNew, hastings float64, rnd *rng.RNG) bool {
	if depCur == 0 {
		return true
	}
	if depNew == 0 {
		return false
	}
	ratio := depNew / depCur * hastings
	if ratio >= 1 {
		return true
	}
	return rnd.Float64() < ratio
}

// runSingleChain is the chain loop: Run calls it once per chain. The
// chain's memo and visited set live in b's epoch-stamped arrays, each
// started on a fresh epoch, so a Result is the same whatever b served
// before; degAlias is the pool's degree-proposal table for g when
// cfg.DegreeProposal is set (nil otherwise). The loop polls ctx every
// cancelCheckInterval steps and after every memo miss; on cancellation
// it returns ctx's error.
func runSingleChain(ctx context.Context, g *graph.Graph, oracle StatOracle, cfg Config, rnd *rng.RNG, b *chainBuffers, degAlias *rng.Alias) (Result, error) {
	n := g.N()
	var res Result

	// The memo: a rejected proposal repeats the current state, so
	// memoising d_v makes the chain cost O(unique states) evaluations
	// instead of O(steps). memoVal[v] is valid iff memoStamp[v] ==
	// memoEpoch. Config.DisableCache turns it off (ablation T8d).
	memo := !cfg.DisableCache
	memoVal, memoStamp, memoEpoch := b.memoVal, b.memoStamp, b.nextMemoEpoch()
	dep := func(v int) float64 {
		if memo && memoStamp[v] == memoEpoch {
			res.CacheHits++
			return memoVal[v]
		}
		res.Evals++
		d := oracle.Dep(v)
		if memo {
			memoStamp[v] = memoEpoch
			memoVal[v] = d
		}
		return d
	}

	// A context that can never be cancelled (context.Background and
	// friends) has a nil Done channel; skip the per-step polling
	// entirely for those.
	cancellable := ctx.Done() != nil
	if cancellable {
		if err := ctx.Err(); err != nil {
			return res, err
		}
	}

	// Degree-weighted proposals (ablation T8b): g(v) = deg(v)/2m; the
	// Hastings factor for the acceptance of v→v' is g(v)/g(v') =
	// deg(v)/deg(v').
	propose := func() int {
		if degAlias != nil {
			return degAlias.Draw(rnd)
		}
		return rnd.Intn(n)
	}

	cur := cfg.InitState
	if cur < 0 {
		cur = rnd.Intn(n)
	}
	depCur := dep(cur)
	if nonFinite(depCur) {
		return res, fmt.Errorf("mcmc: dependency at vertex %d is %v: %w", cur, depCur, ErrNonFinite)
	}
	res.MaxDepSeen = depCur

	visStamp, visEpoch := b.visStamp, b.nextVisEpoch()
	uniqueStates := 0
	visit := func(v int) {
		if visStamp[v] != visEpoch {
			visStamp[v] = visEpoch
			uniqueStates++
		}
	}
	visit(cur)

	// Accumulators. "Counted" sums skip the first BurnIn states.
	var (
		chainSum    float64 // Σ f over chain states (incl. repeats)
		chainStates int
		eq7Sum      float64 // Σ f over accepted states only
		propSum     float64 // Σ importance-weighted f over proposals
		propCount   int
		propPosFrac float64 // importance-weighted count of proposals with δ>0 (for n⁺/n)
		invSum      float64 // Σ 1/δ over chain states with δ>0
		invCount    int
		depPropSum  float64 // Σ δ over uniform-equivalent proposals
		accepted    int
	)
	// Adaptive stopping state. The monitored stream is the
	// importance-weighted proposal-side f values — iid draws, so the
	// empirical-Bernstein confidence sequence applies without any
	// mixing argument. Welford's recurrence keeps mean and variance in
	// O(1) per step; stepsRun only moves off cfg.Steps when the rule
	// fires, so a disabled run normalises exactly as before.
	adaptive := cfg.AdaptiveEps > 0
	adaptiveDelta := cfg.AdaptiveDelta
	if adaptiveDelta == 0 {
		adaptiveDelta = 0.1
	}
	var (
		welMean, welM2 float64
		fRange         = 1.0 // exact for uniform proposals: f ∈ [0,1)
		nextCheck      = adaptiveFirstCheck
		checkIdx       = 0
	)
	stepsRun := cfg.Steps

	countState := func(dep float64, stateIdx int) {
		if stateIdx < cfg.BurnIn {
			return
		}
		f := fOf(dep, n)
		chainSum += f
		chainStates++
		if cfg.CollectFTrace {
			res.FTrace = append(res.FTrace, f)
		}
		if dep > 0 {
			invSum += 1 / dep
			invCount++
		}
	}
	// State 0 is the initial state; Eq. 7's multiset includes it.
	countState(depCur, 0)
	eq7Sum += fOf(depCur, n)

	for t := 1; t <= cfg.Steps; t++ {
		if cancellable && t%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return res, err
			}
		}
		prop := propose()
		evals := res.Evals
		depNew := dep(prop)
		if nonFinite(depNew) {
			return res, fmt.Errorf("mcmc: dependency at vertex %d is %v: %w", prop, depNew, ErrNonFinite)
		}
		// A memo miss just paid a full traversal; re-check the context
		// so a chain stuck in cold-cache evaluations (memo disabled, or
		// a large state space early in the run) aborts within one
		// evaluation instead of cancelCheckInterval of them.
		if cancellable && res.Evals != evals {
			if err := ctx.Err(); err != nil {
				return res, err
			}
		}
		if depNew > res.MaxDepSeen {
			res.MaxDepSeen = depNew
		}
		// Proposal-side statistics. With uniform proposals the weight
		// is 1; with degree proposals each draw is importance-weighted
		// by (1/n)/g(v') = 2m/(n·deg(v')).
		weight := 1.0
		if cfg.DegreeProposal {
			weight = 2 * float64(g.M()) / (float64(n) * float64(g.Degree(prop)))
		}
		propSum += weight * fOf(depNew, n)
		depPropSum += weight * depNew
		if cfg.CollectProposalTrace {
			res.ProposalFTrace = append(res.ProposalFTrace, weight*fOf(depNew, n))
		}
		if depNew > 0 {
			propPosFrac += weight
		}
		propCount++
		if adaptive {
			fw := weight * fOf(depNew, n)
			d := fw - welMean
			welMean += d / float64(propCount)
			welM2 += d * (fw - welMean)
			if fw > fRange {
				// Degree-weighted samples can exceed 1; widen the range
				// term to the observed maximum (a heuristic there — the
				// rule stays exact for the uniform proposal, where 1
				// bounds f outright).
				fRange = fw
			}
		}

		hastings := 1.0
		if cfg.DegreeProposal {
			hastings = float64(g.Degree(cur)) / float64(g.Degree(prop))
		}
		if acceptMH(depCur, depNew, hastings, rnd) {
			cur = prop
			depCur = depNew
			accepted++
			visit(cur)
			eq7Sum += fOf(depCur, n)
		}
		countState(depCur, t)
		if adaptive && (t == nextCheck || t == cfg.Steps) {
			// Union-bound spending across checkpoints: δ_i =
			// δ/((i+1)(i+2)) telescopes to δ over all i ≥ 0.
			deltaI := adaptiveDelta / float64((checkIdx+1)*(checkIdx+2))
			checkIdx++
			nextCheck *= 2
			// Inside burn-in no state is counted yet, and a stop there
			// would report an estimate of nothing. Skipping a
			// checkpoint only leaves its δ_i unspent.
			if chainStates == 0 {
				continue
			}
			variance := welM2 / float64(propCount)
			res.EBHalfWidth = ebHalfWidth(variance, propCount, fRange, deltaI)
			if res.EBHalfWidth <= cfg.AdaptiveEps {
				stepsRun = t
				res.Converged = true
				break
			}
		}
	}
	// Chain average over counted states.
	if chainStates > 0 {
		res.ChainAverage = chainSum / float64(chainStates)
	}
	// Eq. 7 literal: accepted-state sum over T+1 (T = the steps
	// actually run, which only differs from cfg.Steps when the
	// adaptive rule stopped early).
	res.PaperEq7 = eq7Sum / float64(stepsRun+1)
	if propCount > 0 {
		res.ProposalSide = propSum / float64(propCount)
	}
	// Harmonic correction: Σδ ≈ n·p⁺ / mean(1/δ);
	// BC = Σδ/(n(n-1)) ⇒ BC ≈ p⁺ / (mean(1/δ)·(n-1)).
	if invCount > 0 && propCount > 0 {
		pPos := propPosFrac / float64(propCount)
		meanInv := invSum / float64(invCount)
		if meanInv > 0 {
			res.Harmonic = pPos / (meanInv * float64(n-1))
		}
	}
	switch cfg.Estimator {
	case EstimatorChainAverage:
		res.Estimate = res.ChainAverage
	case EstimatorPaperEq7:
		res.Estimate = res.PaperEq7
	case EstimatorProposalSide:
		res.Estimate = res.ProposalSide
	case EstimatorHarmonic:
		res.Estimate = res.Harmonic
	}
	res.StepsRun = stepsRun
	res.AcceptanceRate = float64(accepted) / float64(stepsRun)
	res.UniqueStates = uniqueStates
	if propCount > 0 {
		res.MeanDepProposal = depPropSum / float64(propCount)
	}
	return res, nil
}
