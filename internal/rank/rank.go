// Package rank answers the whole-graph question the single-vertex
// samplers cannot: "which k vertices matter most?" It ranks candidates
// by betweenness with a progressive-refinement allocation in the spirit
// of the adaptive top-k literature (Chehreghani et al. 2018's adaptive
// centrality estimators, Mahmoody et al. 2016's sampling maximization):
// instead of spending the same chain budget on every vertex — most of
// which are obviously not in the top k — it spends a little everywhere,
// prunes the vertices whose confidence interval cannot reach the top-k
// boundary, and reallocates the freed budget to the survivors.
//
// Round t runs one short Metropolis–Hastings chain (internal/mcmc,
// fixed step count, so no O(nm) μ derivation is ever paid) on every
// surviving candidate, roughly doubling the per-candidate budget each
// round. Chains from different rounds are independent restarts, so a
// candidate's running estimate pools them by step count and its
// interval half-width is Confidence·√(Σ wᵢ²·MCSEᵢ²) with the per-chain
// Monte-Carlo standard errors taken from the trace diagnostics
// (batch-means ESS, stats.ESSBatchMeans). A candidate
// is pruned when its upper bound falls strictly below the k-th largest
// lower bound; refinement stops when at most k candidates survive, the
// round limit is hit, or the total step budget is exhausted.
//
// The default ranking statistic is each chain's proposal-side sample
// stream (EstimatorUnbiased), not the chain average: the chain
// average's asymptotic limit Σδ²/((n-1)Σδ) inflates differently per
// vertex (the T10 soundness finding), enough to reorder vertices near
// the top-k boundary — on a 400-vertex Barabási–Albert graph its
// limiting top-5 set already differs from the exact one, so no amount
// of refinement would converge to the true ranking. The proposal-side
// samples are iid with mean exactly BC(r), so intervals are honest and
// the ranking converges; EstimatorChainAverage remains available for
// the paper-literal statistic.
//
// All chains draw traversal buffers from one mcmc.BufferPool —
// internal/store passes each session's engine pool (engine.Pool). The
// chains of a betweenness ranking all run on one graph snapshot and
// keep proposing the same sources (a top-10 job on a 400-vertex road
// grid evaluates each source about 143 times), so each Run holds the
// pool's mcmc.SourceRows table of that snapshot, shared with any other
// ranking of it running at the same time: a vertex's shortest-path row
// is computed at most once per table, a memo miss is an O(n) row scan
// instead of a traversal, and a chain's target side is its candidate's
// row. Ranking therefore neither fills nor evicts the pool's
// target-snapshot LRU that the μ-cache and the estimate traffic use —
// unless the pool makes no table (a graph too large for the row
// budget to hold half its rows, or a directed one), in which case the
// chains run as plain BC chains. (Rankings by another measure run
// their internal/measure sources, which read that LRU.) Run is
// deterministic for a fixed (Options, graph): per-chain seeds depend
// only on (Seed, round, vertex), never on scheduling, and rows are the
// same whichever chain builds them.
package rank

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"bcmh/internal/graph"
	"bcmh/internal/mcmc"
	"bcmh/internal/measure"
	"bcmh/internal/rng"
	"bcmh/internal/stats"
)

// Defaults for zero Options fields.
const (
	// DefaultK is the ranking size.
	DefaultK = 10
	// DefaultInitialSteps is the per-candidate chain length of round 1.
	DefaultInitialSteps = 128
	// DefaultGrowth multiplies the per-candidate chain length each round.
	DefaultGrowth = 2.0
	// DefaultMaxRounds bounds refinement rounds (with DefaultGrowth the
	// last round's chains are ~2¹¹ times the first round's).
	DefaultMaxRounds = 12
	// DefaultConfidence is the interval half-width multiplier z: wider
	// intervals prune later but mis-prune less.
	DefaultConfidence = 3.0
)

// Estimator selects the per-chain statistic candidates are ranked by.
type Estimator int

const (
	// EstimatorUnbiased (default) ranks by the chain's proposal-side
	// sample stream: iid samples whose mean is exactly BC(r), so
	// intervals are honest and the ranking converges to the exact
	// top-k.
	EstimatorUnbiased Estimator = iota
	// EstimatorChainAverage ranks by the MH chain average — the
	// paper's primary estimator, lower-variance for concentrated
	// dependency mass but with a vertex-dependent asymptotic inflation
	// that can permanently reorder vertices near the top-k boundary.
	EstimatorChainAverage
)

// String returns the request-surface label of the estimator.
func (e Estimator) String() string {
	switch e {
	case EstimatorUnbiased:
		return "unbiased"
	case EstimatorChainAverage:
		return "chain-avg"
	default:
		return fmt.Sprintf("Estimator(%d)", int(e))
	}
}

// Options configures a ranking run. The zero value means "rank the
// top DefaultK with default refinement".
type Options struct {
	// K is the ranking size (default DefaultK, clamped to the candidate
	// count).
	K int
	// InitialSteps is the round-1 per-candidate chain length (default
	// DefaultInitialSteps). Fixed steps, not (ε,δ)-planned: planning
	// would cost an O(nm) μ derivation per candidate, exactly the cost
	// progressive refinement exists to avoid.
	InitialSteps int
	// Growth multiplies the per-candidate chain length each round
	// (default DefaultGrowth; must be ≥ 1).
	Growth float64
	// MaxRounds bounds refinement rounds (default DefaultMaxRounds).
	MaxRounds int
	// TotalBudget, when positive, caps the total MH steps summed over
	// all candidates and rounds; a round that cannot afford its full
	// per-candidate chunk spreads what remains evenly and finishes.
	// Zero means unbounded (MaxRounds bounds the work).
	TotalBudget int
	// Confidence is the interval half-width multiplier (default
	// DefaultConfidence).
	Confidence float64
	// MaxCandidates, when positive and below n, restricts the candidate
	// set to the MaxCandidates highest-degree vertices — the cheap
	// degree-biased screen for huge graphs, where scanning every vertex
	// even once is too expensive and high-betweenness vertices are
	// overwhelmingly high-degree. Zero ranks every vertex.
	MaxCandidates int
	// Concurrency bounds the per-round worker pool (default GOMAXPROCS).
	Concurrency int
	// Seed makes the run reproducible; candidate v's round-t chain seed
	// is a function of (Seed, t, v) alone.
	Seed uint64
	// Estimator selects the ranking statistic (default
	// EstimatorUnbiased).
	Estimator Estimator
	// Measure selects the centrality measure candidates are ranked by.
	// The zero spec is betweenness, byte-identical to the pre-measure
	// ranking path; coverage, k-path, and random-walk betweenness run
	// the same chains against their internal/measure statistic oracles
	// (the graph must satisfy Measure.Supports — unweighted and
	// undirected for the non-bc measures).
	Measure measure.Spec
	// Adaptive enables the empirical-Bernstein early stop on every
	// per-candidate chain: a chain whose proposal-side sample stream is
	// pinned to ±Epsilon at confidence 1−Delta stops before its round
	// chunk ends, and the unspent steps stay in the total budget for
	// later rounds. Rankings with Adaptive false are byte-identical to
	// the fixed-chunk path.
	Adaptive bool
	// Epsilon and Delta parameterise the adaptive stop (defaults 0.01
	// and 0.1, matching core.Options). Ignored unless Adaptive is set.
	Epsilon, Delta float64
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = DefaultK
	}
	if o.InitialSteps <= 0 {
		o.InitialSteps = DefaultInitialSteps
	}
	if o.Growth < 1 {
		o.Growth = DefaultGrowth
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = DefaultMaxRounds
	}
	if o.TotalBudget < 0 {
		o.TotalBudget = 0
	}
	if o.Confidence <= 0 {
		o.Confidence = DefaultConfidence
	}
	if o.Concurrency <= 0 {
		o.Concurrency = runtime.GOMAXPROCS(0)
	}
	if o.Adaptive {
		if o.Epsilon <= 0 {
			o.Epsilon = 0.01
		}
		if o.Delta <= 0 {
			o.Delta = 0.1
		}
	}
	return o
}

// Entry is one candidate's state in a ranking: the pooled estimate,
// its confidence interval, and the total MH steps spent on it (pruned
// candidates stop accumulating early — that is the point).
type Entry struct {
	Vertex   int     `json:"vertex"`
	Estimate float64 `json:"estimate"`
	Lower    float64 `json:"lower"`
	Upper    float64 `json:"upper"`
	Steps    int     `json:"steps"`
}

// Progress is the per-round snapshot reported to Run's callback (and
// surfaced by the async job API as the partial ranking).
type Progress struct {
	// Round is the refinement round just completed (1-based).
	Round int `json:"round"`
	// Active is how many candidates survive into the next round.
	Active int `json:"active"`
	// TotalSteps is the MH steps spent so far, summed over candidates.
	TotalSteps int `json:"total_steps"`
	// Top is the current top-K by estimate — the partial ranking.
	Top []Entry `json:"top"`
}

// Result is a completed ranking.
type Result struct {
	// TopK is the final ranking, best first (ties broken by vertex id
	// for determinism). It is drawn from the surviving (never-pruned)
	// candidates only: survivors are the vertices the refinement spent
	// its budget on, and a pruned candidate's stale low-sample estimate
	// must not displace one (at least K candidates always survive — the
	// K interval lower bounds defining the pruning boundary belong to
	// candidates whose upper bounds clear it).
	TopK []Entry `json:"top"`
	// All holds every candidate sorted by estimate, pruned ones
	// included; len(All) is the candidate count.
	All []Entry `json:"-"`
	// Rounds is how many refinement rounds ran.
	Rounds int `json:"rounds"`
	// TotalSteps is the total MH steps spent across all candidates and
	// rounds — the number a uniform allocation is compared against.
	TotalSteps int `json:"total_steps"`
	// Pruned is how many candidates were eliminated before the final
	// round.
	Pruned int `json:"pruned"`
}

// cand is one candidate's accumulator across rounds.
type cand struct {
	v       int
	steps   int     // Σ chain states absorbed
	est     float64 // pooled mean of f = δ/(n-1), i.e. the measure estimate
	varMean float64 // variance of est (independent-chain pooling)
	active  bool
	// src caches the candidate's chain source (measure.Source): a
	// measure's target-side shortest-path or current-flow state is
	// per-candidate and round-independent, so survivors reuse it across
	// rounds instead of re-solving every round.
	src *mcmc.Source
}

// halfWidth is the candidate's interval half-width: the z-scaled
// standard error of the pooled mean plus a z²/(2N) missing-mass slack.
// The slack keeps intervals honest when the sample variance
// degenerates: N all-zero samples of a [0,1)-valued f bound the true
// mean only to O(ln(1/δ)/N), so a zero-variance trace (constant — or
// single-sample — chunks) must not yield a zero-width interval that
// "certifies" its estimate and prunes on next to no evidence.
func (c *cand) halfWidth(z float64) float64 {
	if c.steps == 0 {
		return math.Inf(1)
	}
	return z*math.Sqrt(c.varMean) + z*z/(2*float64(c.steps))
}

// absorb folds one chain's f-trace into the candidate's pooled
// estimate. Chains are independent restarts, so the pooled mean weights
// by sample count and the pooled variance-of-mean adds in quadrature:
// mean ← w₁·mean + w₂·m₂, var ← w₁²·var + w₂²·v₂ with wᵢ = nᵢ/N. The
// chunk's variance-of-mean v₂ is Var(trace)/ESS (batch-means ESS), the
// autocorrelation-aware MCSE² the chain diagnostics use.
func (c *cand) absorb(trace []float64) {
	n2 := len(trace)
	if n2 == 0 {
		return
	}
	m2 := stats.Mean(trace)
	var v2 float64
	if n2 > 1 {
		ess := stats.ESSBatchMeans(trace)
		if ess < 1 {
			ess = 1
		}
		v2 = stats.Variance(trace) / ess
	}
	nTot := c.steps + n2
	w1 := float64(c.steps) / float64(nTot)
	w2 := float64(n2) / float64(nTot)
	c.est = w1*c.est + w2*m2
	c.varMean = w1*w1*c.varMean + w2*w2*v2
	c.steps = nTot
}

// ChainSeed returns the seed of candidate v's round-round chain under a
// run seed — a pure function of the triple, so reruns, candidate
// orders, and worker scheduling cannot change any chain. Exported so
// tests can replay one candidate's chain exactly.
func ChainSeed(seed uint64, round, v int) uint64 {
	return rng.New(seed).Split("rank-r" + strconv.Itoa(round) + "-v" + strconv.Itoa(v)).Uint64()
}

// Candidates returns the vertex set a ranking over g considers: every
// vertex when max ≤ 0 or max ≥ n, otherwise the max highest-degree
// vertices (ties broken by lower id, keeping the set deterministic).
func Candidates(g *graph.Graph, max int) []int {
	n := g.N()
	vs := make([]int, n)
	for i := range vs {
		vs[i] = i
	}
	if max <= 0 || max >= n {
		return vs
	}
	sort.Slice(vs, func(a, b int) bool {
		da, db := g.Degree(vs[a]), g.Degree(vs[b])
		if da != db {
			return da > db
		}
		return vs[a] < vs[b]
	})
	vs = vs[:max]
	sort.Ints(vs) // stable downstream order
	return vs
}

// Run ranks the top-K betweenness vertices of g by progressive
// refinement. g must be valid for estimation (connected, undirected —
// e.g. an engine's prepared graph); pool supplies chain buffers and,
// for a betweenness ranking, the row table its chains share for the
// whole Run (nil builds a private pool; see the package doc). progress,
// when non-nil, is called after every round from Run's own goroutine.
// Cancelling ctx aborts the in-flight chains promptly and returns ctx's
// error.
func Run(ctx context.Context, g *graph.Graph, pool *mcmc.BufferPool, opts Options, progress func(Progress)) (Result, error) {
	n := g.N()
	if n < 2 {
		return Result{}, fmt.Errorf("rank: graph too small (n=%d)", n)
	}
	o := opts.withDefaults()
	if err := o.Measure.Validate(); err != nil {
		return Result{}, fmt.Errorf("rank: %w", err)
	}
	if err := o.Measure.Supports(g); err != nil {
		return Result{}, fmt.Errorf("rank: %w", err)
	}
	if pool == nil {
		pool = mcmc.NewBufferPool(g)
	}
	var rows *mcmc.SourceRows
	if o.Measure.IsBC() {
		rows = pool.SourceRows(g)
		defer rows.Release()
	}

	vs := Candidates(g, o.MaxCandidates)
	k := o.K
	if k > len(vs) {
		k = len(vs)
	}
	cands := make([]*cand, len(vs))
	for i, v := range vs {
		cands[i] = &cand{v: v, active: true}
	}

	budgetLeft := o.TotalBudget
	unbounded := o.TotalBudget == 0
	chunk := o.InitialSteps
	var res Result
	for round := 1; round <= o.MaxRounds; round++ {
		active := make([]*cand, 0, len(cands))
		for _, c := range cands {
			if c.active {
				active = append(active, c)
			}
		}
		per := chunk
		lastRound := false
		if !unbounded {
			if budgetLeft < len(active) {
				if round == 1 {
					// No candidate can run even one step: there is no
					// ranking to report (entries would carry infinite
					// intervals), so fail loudly instead of returning
					// an empty "done" result.
					return Result{}, fmt.Errorf("rank: total budget %d cannot fund one step for each of %d candidates", o.TotalBudget, len(active))
				}
				break // cannot afford even one more step per survivor
			}
			if per*len(active) > budgetLeft {
				per = budgetLeft / len(active)
				lastRound = true
			}
		}
		spent, err := runRound(ctx, g, pool, rows, active, per, round, o)
		if err != nil {
			return Result{}, err
		}
		res.Rounds = round
		res.TotalSteps += spent
		if !unbounded {
			budgetLeft -= spent
		}
		activeCount := prune(active, k, o.Confidence)
		if progress != nil {
			progress(Progress{
				Round:      round,
				Active:     activeCount,
				TotalSteps: res.TotalSteps,
				Top:        topEntries(cands, k, o.Confidence),
			})
		}
		if activeCount <= k || lastRound {
			break
		}
		chunk = int(float64(chunk) * o.Growth)
		if chunk <= per { // Growth == 1 or rounding: still make progress
			chunk = per + 1
		}
	}

	survivors := make([]*cand, 0, len(cands))
	for _, c := range cands {
		if c.active {
			survivors = append(survivors, c)
		} else {
			res.Pruned++
		}
	}
	res.All = allEntries(cands, o.Confidence)
	res.TopK = topEntries(survivors, k, o.Confidence)
	return res, nil
}

// Uniform is the non-adaptive baseline progressive refinement is
// benchmarked against: every candidate gets exactly per steps, one
// round, no pruning. (It is Run with MaxRounds = 1 and an exact
// round-1 chunk, so the two allocations share every chain detail.)
func Uniform(ctx context.Context, g *graph.Graph, pool *mcmc.BufferPool, k, per int, opts Options) (Result, error) {
	opts.K = k
	opts.InitialSteps = per
	opts.MaxRounds = 1
	opts.TotalBudget = 0
	return Run(ctx, g, pool, opts, nil)
}

// runRound runs one chain per active candidate over a worker pool and
// returns the total MH steps actually run. Each candidate's trace is
// absorbed by the worker that ran it; candidates are disjoint, so no
// locking beyond the dispatch channel is needed. Chains are per steps
// long exactly, unless o.Adaptive lets a converged chain stop early —
// the returned step total is what the budget accounting deducts, so
// early stops refund their unspent steps. Each candidate's chain
// source is built on its first round and cached for later ones.
func runRound(ctx context.Context, g *graph.Graph, pool *mcmc.BufferPool, rows *mcmc.SourceRows, active []*cand, per, round int, o Options) (int, error) {
	if len(active) == 0 {
		return 0, nil
	}
	workers := o.Concurrency
	if workers > len(active) {
		workers = len(active)
	}
	errs := make([]error, len(active))
	steps := make([]int, len(active))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				c := active[i]
				cfg := mcmc.Config{Steps: per, InitState: -1}
				if o.Estimator == EstimatorChainAverage {
					cfg.CollectFTrace = true
				} else {
					cfg.CollectProposalTrace = true
				}
				if o.Adaptive {
					cfg.AdaptiveEps = o.Epsilon
					cfg.AdaptiveDelta = o.Delta
				}
				r, err := runChain(ctx, g, pool, rows, c, cfg, ChainSeed(o.Seed, round, c.v), o.Measure)
				if err != nil {
					errs[i] = err
					continue
				}
				steps[i] = r.StepsRun
				if o.Estimator == EstimatorChainAverage {
					c.absorb(r.FTrace)
				} else {
					c.absorb(r.ProposalFTrace)
				}
			}
		}()
	}
	done := ctx.Done()
dispatch:
	for i := range active {
		select {
		case work <- i:
		case <-done:
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	total := 0
	for _, s := range steps {
		total += s
	}
	if err := ctx.Err(); err != nil {
		return total, err
	}
	for _, err := range errs {
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// runChain runs one candidate chain of the ranking's measure, seeded
// with seed, building the candidate's source on first use: a
// betweenness chain reads the job's row table, any other measure its
// internal/measure source.
func runChain(ctx context.Context, g *graph.Graph, pool *mcmc.BufferPool, rows *mcmc.SourceRows, c *cand, cfg mcmc.Config, seed uint64, spec measure.Spec) (mcmc.Result, error) {
	if c.src == nil {
		src := rows.BC(c.v)
		if !spec.IsBC() {
			var err error
			if src, err = measure.Source(ctx, g, spec, c.v, pool); err != nil {
				return mcmc.Result{}, err
			}
		}
		c.src = &src
	}
	m, err := mcmc.Run(ctx, g, *c.src, cfg, seed, 1, pool)
	return m.Combined, err
}

// prune deactivates every active candidate whose interval upper bound
// lies strictly below the k-th largest lower bound — it cannot reach
// the top-k boundary at the current confidence — and returns how many
// candidates stay active. Strict comparison keeps ties (e.g. the
// all-zero estimates of leaf-heavy graphs) alive rather than
// mass-pruning on zero-width intervals.
func prune(active []*cand, k int, z float64) int {
	if len(active) <= k {
		return len(active)
	}
	lowers := make([]float64, len(active))
	for i, c := range active {
		lowers[i] = c.est - c.halfWidth(z)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(lowers)))
	boundary := lowers[k-1]
	count := 0
	for _, c := range active {
		if c.est+c.halfWidth(z) < boundary {
			c.active = false
		} else {
			count++
		}
	}
	return count
}

// allEntries snapshots every candidate sorted by estimate descending
// (ties by vertex id).
func allEntries(cands []*cand, z float64) []Entry {
	out := make([]Entry, len(cands))
	for i, c := range cands {
		hw := c.halfWidth(z)
		out[i] = Entry{Vertex: c.v, Estimate: c.est, Lower: c.est - hw, Upper: c.est + hw, Steps: c.steps}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Estimate != out[b].Estimate {
			return out[a].Estimate > out[b].Estimate
		}
		return out[a].Vertex < out[b].Vertex
	})
	return out
}

// topEntries snapshots the top-k among still-active candidates (see
// Result.TopK for why pruned candidates are excluded).
func topEntries(cands []*cand, k int, z float64) []Entry {
	live := make([]*cand, 0, len(cands))
	for _, c := range cands {
		if c.active {
			live = append(live, c)
		}
	}
	all := allEntries(live, z)
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}
