// Package rank answers the whole-graph question the single-vertex
// samplers cannot: "which k vertices matter most?" It ranks candidates
// by progressive refinement in the spirit of the adaptive top-k
// literature (Chehreghani et al. 2018's adaptive centrality estimators,
// Mahmoody et al. 2016's sampling maximization): it samples a little
// for every candidate, prunes the vertices whose confidence interval
// cannot reach the top-k boundary, and keeps sampling for the rest.
//
// A betweenness ranking shares its samples. One Brandes pass from a
// source s (a fast kernel's traversal and pull-form backward pass,
// brandes.NewPass) gives δ_s•(c) for every candidate c at once: the
// uniform-source sampler of the source paper's §3.2 (Bader et al.),
// drawn once for all vertices as Mahmoody et al. do. Run shuffles the
// n sources once, with a permutation seeded by Options.Seed, and takes
// them in batches of InitialSteps·Growth^(t−1) passes; each pass adds
// f = δ_s•(c)/(n−1) to every candidate. After a batch, with m of the
// n sources seen, a candidate's estimate is the mean of its f,
// unbiased for BC(c), and its interval half-width is
//
//	z·√((1−m/n)·s²/m) + (1−m/n)·z²/(2m)
//
// with s² the sample variance of f and z = Confidence: a z-scaled
// standard error under the finite-population correction of sampling
// without replacement, plus a slack that keeps a zero-variance sample
// from certifying its mean on next to no evidence. At m = n the interval
// is the point BC(c), so a ranking that sees every source is exact. For
// betweenness, budgets, batch sizes and step counts all count source
// passes.
//
// Other measures have no one-pass form. Round t of their ranking runs
// one short Metropolis–Hastings chain (internal/mcmc, fixed step count,
// so no O(nm) μ derivation is ever paid) on every surviving candidate,
// roughly doubling the per-candidate budget each round. Chains from
// different rounds are independent restarts, so a candidate's running
// estimate pools them by step count and its interval half-width is
// Confidence·√(Σ wᵢ²·MCSEᵢ²) + Confidence²/(2N), with the per-chain
// Monte-Carlo standard errors taken from the trace diagnostics
// (batch-means ESS, stats.ESSBatchMeans). The default chain statistic
// is the proposal-side sample stream (EstimatorUnbiased), whose samples
// are iid with mean exactly the measure's value. The chain average
// converges to Σd²/((n−1)Σd) instead, which inflates differently per
// vertex (the T10 soundness finding): on a 400-vertex Barabási–Albert
// graph its limiting betweenness top-5 set already differs from the
// exact one, so no amount of refinement converges to the true ranking.
// EstimatorChainAverage remains available for the paper-literal
// statistic of the chain measures; a betweenness ranking rejects it.
//
// Either way a candidate is pruned when its upper bound falls strictly
// below the k-th largest lower bound, and refinement stops when at most
// k candidates survive, the round limit is hit, the budget is spent, or
// (betweenness) every source has been seen.
//
// Run is deterministic for a fixed (Options, graph). A betweenness
// ranking sums its passes in sourceLanes partial sums merged in lane
// order, whatever Concurrency is; a chain's seed depends only on (Seed,
// round, vertex). Chains draw traversal buffers from one
// mcmc.BufferPool — internal/store passes each session's engine pool
// (engine.Pool) — and read its target-snapshot LRU; betweenness passes
// run on kernels of their own and leave the pool alone.
package rank

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"bcmh/internal/brandes"
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
	// DefaultInitialSteps is the round-1 batch: source passes for
	// betweenness, the per-candidate chain length otherwise.
	DefaultInitialSteps = 128
	// DefaultGrowth multiplies the batch or chain length each round.
	DefaultGrowth = 2.0
	// DefaultMaxRounds bounds refinement rounds (with DefaultGrowth the
	// last round's batch is ~2¹¹ times the first round's).
	DefaultMaxRounds = 12
	// DefaultConfidence is the interval half-width multiplier z: wider
	// intervals prune later but mis-prune less.
	DefaultConfidence = 3.0
)

// sourceLanes is how many partial sums a betweenness ranking splits
// its source passes over. The j-th source of the permutation adds into
// lane j mod sourceLanes, each lane takes its sources in permutation
// order, and lanes merge in lane order, so no sum depends on how many
// workers ran the lanes. It also caps those workers.
const sourceLanes = 8

// Estimator selects the per-chain statistic candidates are ranked by.
// It applies to the chain measures only: a betweenness ranking averages
// its source passes, and accepts only EstimatorUnbiased.
type Estimator int

const (
	// EstimatorUnbiased (default) ranks by the chain's proposal-side
	// sample stream: iid samples whose mean is exactly the measure's
	// value, so intervals are honest and the ranking converges to the
	// exact top-k.
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
// top DefaultK betweenness vertices with default refinement".
type Options struct {
	// K is the ranking size (default DefaultK, clamped to the candidate
	// count).
	K int
	// InitialSteps is the round-1 batch (default DefaultInitialSteps):
	// source passes for betweenness, the per-candidate chain length
	// otherwise. Fixed, not (ε,δ)-planned: planning a chain would cost
	// an O(nm) μ derivation per candidate, exactly the cost progressive
	// refinement exists to avoid.
	InitialSteps int
	// Growth multiplies the batch or chain length each round (default
	// DefaultGrowth; must be ≥ 1).
	Growth float64
	// MaxRounds bounds refinement rounds (default DefaultMaxRounds).
	MaxRounds int
	// TotalBudget, when positive, caps the work: source passes for
	// betweenness (at least 2; passes past n are never run), otherwise
	// the MH steps summed over all candidates and rounds, where a round
	// that cannot afford its full per-candidate chunk spreads what
	// remains evenly and finishes. Zero means unbounded (MaxRounds, and
	// for betweenness n, bound the work).
	TotalBudget int
	// Confidence is the interval half-width multiplier (default
	// DefaultConfidence).
	Confidence float64
	// MaxCandidates, when positive and below n, restricts the candidate
	// set to the MaxCandidates highest-degree vertices — the cheap
	// degree-biased screen for huge graphs, where high-betweenness
	// vertices are overwhelmingly high-degree. Zero ranks every vertex.
	// Betweenness passes still draw their sources from every vertex.
	MaxCandidates int
	// Concurrency bounds the worker pool (default GOMAXPROCS). A
	// betweenness ranking sums its passes in 8 lanes and uses at most
	// one worker per lane.
	Concurrency int
	// Seed makes the run reproducible: it seeds a betweenness ranking's
	// source permutation, and candidate v's round-t chain seed is a
	// function of (Seed, t, v) alone.
	Seed uint64
	// Estimator selects the chain statistic (default
	// EstimatorUnbiased).
	Estimator Estimator
	// Measure selects the centrality measure candidates are ranked by.
	// The zero spec is betweenness; coverage, k-path, and random-walk
	// betweenness run chains against their internal/measure statistic
	// oracles (the graph must satisfy Measure.Supports — unweighted and
	// undirected for the non-bc measures).
	Measure measure.Spec
	// Adaptive enables the empirical-Bernstein early stop on every
	// per-candidate chain: a chain whose proposal-side sample stream is
	// pinned to ±Epsilon at confidence 1−Delta stops before its round
	// chunk ends, and the unspent steps stay in the total budget for
	// later rounds. Rankings with Adaptive false are byte-identical to
	// the fixed-chunk path. A betweenness ranking runs no chain and
	// rejects it.
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

// Validate reports the options no graph can rank: an invalid measure,
// or a betweenness ranking naming a knob only per-candidate chains
// use. EstimatorChainAverage would rank by the chain-average limit,
// which converges to the wrong top-k, and Adaptive stops chains early;
// neither means anything for shared source passes. Run checks it
// first; a server checks it before starting a job.
func (o Options) Validate() error {
	if err := o.Measure.Validate(); err != nil {
		return fmt.Errorf("rank: %w", err)
	}
	if !o.Measure.IsBC() {
		return nil
	}
	switch {
	case o.Estimator == EstimatorChainAverage:
		return fmt.Errorf("rank: estimator %q ranks by the chain-average limit, which converges to the wrong top-k; a betweenness ranking averages shared source passes (omit the estimator)", o.Estimator)
	case o.Adaptive:
		return fmt.Errorf("rank: \"adaptive\" stops per-candidate chains early, and a betweenness ranking runs none; it stops once the top-k is certified or every source has been seen")
	}
	return nil
}

// Entry is one candidate's state in a ranking: the estimate, its
// confidence interval, and the work behind it — the MH steps spent on
// the candidate (pruned candidates stop accumulating early — that is
// the point), or for betweenness the source passes its estimate
// averages.
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
	// TotalSteps is the work spent so far: source passes for
	// betweenness, MH steps summed over candidates otherwise.
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
	// TotalSteps is the total work: source passes for betweenness, MH
	// steps across all candidates and rounds otherwise — the number a
	// uniform allocation is compared against.
	TotalSteps int `json:"total_steps"`
	// Pruned is how many candidates were eliminated before the final
	// round.
	Pruned int `json:"pruned"`
}

// cand is one candidate's accumulator across rounds.
type cand struct {
	v       int
	steps   int     // Σ chain states absorbed, or source passes seen
	est     float64 // pooled mean of f = δ/(n-1), i.e. the measure estimate
	varMean float64 // variance of est
	// seen is the fraction of the source population behind est: m/n
	// for betweenness, 0 for chains, whose samples come from an
	// unbounded stream.
	seen   float64
	active bool
	// src caches the candidate's chain source (measure.Source): a
	// measure's target-side shortest-path or current-flow state is
	// per-candidate and round-independent, so survivors reuse it across
	// rounds instead of re-solving every round.
	src *mcmc.Source
}

// halfWidth is the candidate's interval half-width: the z-scaled
// standard error of the pooled mean plus a z²/(2N) missing-mass slack,
// both scaled by the unseen fraction of a finite source population.
// The slack keeps intervals honest when the sample variance
// degenerates: N all-zero samples of a [0,1)-valued f bound the true
// mean only to O(ln(1/δ)/N), so a zero-variance trace (constant — or
// single-sample — chunks) must not yield a zero-width interval that
// "certifies" its estimate and prunes on next to no evidence. A
// betweenness candidate that has seen every source has nothing unseen
// and a zero-width interval.
func (c *cand) halfWidth(z float64) float64 {
	if c.steps == 0 {
		return math.Inf(1)
	}
	return z*math.Sqrt(c.varMean) + (1-c.seen)*z*z/(2*float64(c.steps))
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

// setSources sets a betweenness candidate's state from its sums Σf and
// Σf² over the first m of n sources: the sample mean, and the variance
// of that mean under sampling without replacement, (1−m/n)·s²/m.
func (c *cand) setSources(sum, sq float64, m, n int) {
	mean := sum / float64(m)
	var s2 float64
	if m > 1 {
		s2 = max((sq-sum*mean)/float64(m-1), 0)
	}
	c.steps = m
	c.est = mean
	c.seen = float64(m) / float64(n)
	c.varMean = (1 - c.seen) * s2 / float64(m)
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

// Run ranks the top-K vertices of g by progressive refinement (see the
// package doc). g must be valid for estimation (connected, undirected —
// e.g. an engine's prepared graph); a directed g is an error. pool
// supplies the buffers of a chain measure's chains (nil builds a
// private pool); a betweenness ranking does not use it. progress, when
// non-nil, is called after every round from Run's own goroutine.
// Cancelling ctx aborts the in-flight work promptly and returns ctx's
// error.
func Run(ctx context.Context, g *graph.Graph, pool *mcmc.BufferPool, opts Options, progress func(Progress)) (Result, error) {
	n := g.N()
	if n < 2 {
		return Result{}, fmt.Errorf("rank: graph too small (n=%d)", n)
	}
	if g.Directed() {
		return Result{}, fmt.Errorf("rank: ranking requires an undirected graph")
	}
	o := opts.withDefaults()
	if err := o.Validate(); err != nil {
		return Result{}, err
	}
	if err := o.Measure.Supports(g); err != nil {
		return Result{}, fmt.Errorf("rank: %w", err)
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

	var res Result
	var err error
	if o.Measure.IsBC() {
		res, err = rankBySources(ctx, g, cands, k, o, progress)
	} else {
		if pool == nil {
			pool = mcmc.NewBufferPool(g)
		}
		res, err = rankByChains(ctx, g, pool, cands, k, o, progress)
	}
	if err != nil {
		return Result{}, err
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
// benchmarked against: one round, no pruning, in which every candidate
// gets exactly per steps (for betweenness, one batch of per source
// passes serves them all). It is Run with MaxRounds = 1 and an exact
// round-1 chunk, so the two allocations share every detail.
func Uniform(ctx context.Context, g *graph.Graph, pool *mcmc.BufferPool, k, per int, opts Options) (Result, error) {
	opts.K = k
	opts.InitialSteps = per
	opts.MaxRounds = 1
	opts.TotalBudget = 0
	return Run(ctx, g, pool, opts, nil)
}

// nextChunk grows a round's batch or chain length by growth, by at
// least one so that Growth == 1 and rounding still make progress.
func nextChunk(chunk int, growth float64) int {
	if next := int(float64(chunk) * growth); next > chunk {
		return next
	}
	return chunk + 1
}

// rankBySources runs a betweenness ranking's rounds: batch t adds the
// next InitialSteps·Growth^(t−1) sources of the seeded permutation, up
// to the budget and n, to every candidate; then the candidates'
// intervals are recomputed and pruned.
func rankBySources(ctx context.Context, g *graph.Graph, cands []*cand, k int, o Options, progress func(Progress)) (Result, error) {
	n := g.N()
	if o.TotalBudget == 1 {
		return Result{}, fmt.Errorf("rank: total budget 1 cannot fund the two source passes a sample variance needs")
	}
	budget := n
	if o.TotalBudget > 0 && o.TotalBudget < n {
		budget = o.TotalBudget
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng.New(o.Seed).ShuffleInts(order)
	p := newSourcePasses(g, cands, order, min(o.Concurrency, sourceLanes))

	var res Result
	for m, batch := 0, o.InitialSteps; m < budget && res.Rounds < o.MaxRounds; batch = nextChunk(batch, o.Growth) {
		to := m + min(batch, budget-m)
		if err := p.run(ctx, m, to); err != nil {
			return Result{}, err
		}
		m = to
		res.Rounds++
		res.TotalSteps = m
		for i, c := range cands {
			var sum, sq float64
			for l := range p.lanes {
				sum += p.lanes[l].sum[i]
				sq += p.lanes[l].sq[i]
			}
			c.setSources(sum, sq, m, n)
		}
		activeCount := prune(activeOf(cands), k, o.Confidence)
		if progress != nil {
			progress(Progress{Round: res.Rounds, Active: activeCount, TotalSteps: m, Top: topEntries(cands, k, o.Confidence)})
		}
		if activeCount <= k {
			break
		}
	}
	return res, nil
}

// lane is one partial sum of a betweenness ranking's passes: Σf and
// Σf² per candidate, in candidate order.
type lane struct {
	sum, sq []float64
}

// sourcePasses runs the Brandes passes of a betweenness ranking into
// its lanes, on one fast kernel per worker.
type sourcePasses struct {
	g     *graph.Graph
	vs    []int // candidate vertices, in candidate order
	order []int // the source permutation
	lanes [sourceLanes]lane
	kerns []brandes.Pass
}

func newSourcePasses(g *graph.Graph, cands []*cand, order []int, workers int) *sourcePasses {
	p := &sourcePasses{g: g, vs: make([]int, len(cands)), order: order}
	for i, c := range cands {
		p.vs[i] = c.v
	}
	for l := range p.lanes {
		p.lanes[l] = lane{sum: make([]float64, len(cands)), sq: make([]float64, len(cands))}
	}
	for w := 0; w < workers; w++ {
		p.kerns = append(p.kerns, brandes.NewPass(g))
	}
	return p
}

// run adds the passes from sources order[from:to] into their lanes,
// the workers taking whole lanes. It returns ctx's error if ctx ends
// first, else the first lane's error in lane order.
func (p *sourcePasses) run(ctx context.Context, from, to int) error {
	lanes := make(chan int, sourceLanes)
	for l := range p.lanes {
		lanes <- l
	}
	close(lanes)
	errs := make([]error, sourceLanes)
	var wg sync.WaitGroup
	for w := range p.kerns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := range lanes {
				errs[l] = p.lane(ctx, w, l, from, to)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// lane runs lane l's sources among order[from:to] on worker w's kernel
// and adds each pass's f and f² to the lane's sums. A pass holding a
// NaN or ±Inf dependency (path counts past float64's range) is an
// error wrapping mcmc.ErrNonFinite.
func (p *sourcePasses) lane(ctx context.Context, w, l, from, to int) error {
	kern := p.kerns[w]
	sum, sq := p.lanes[l].sum, p.lanes[l].sq
	n := p.g.N()
	nm1 := float64(n - 1)
	j := from - from%sourceLanes + l // lane l's first source at or past from
	if j < from {
		j += sourceLanes
	}
	for ; j < to; j += sourceLanes {
		if err := ctx.Err(); err != nil {
			return err
		}
		s := p.order[j]
		kern.Run(s)
		kern.Accumulate()
		for v := 0; v < n; v++ {
			if d := kern.DeltaOf(v); math.IsNaN(d) || math.IsInf(d, 0) {
				return fmt.Errorf("rank: dependency of source %d on vertex %d is %v: %w", s, v, d, mcmc.ErrNonFinite)
			}
		}
		for i, v := range p.vs {
			f := kern.DeltaOf(v) / nm1
			sum[i] += f
			sq[i] += f * f
		}
	}
	return nil
}

// rankByChains runs a chain measure's rounds: one chain per surviving
// candidate per round, each round's chunk grown by Growth, under the
// MH-step budget.
func rankByChains(ctx context.Context, g *graph.Graph, pool *mcmc.BufferPool, cands []*cand, k int, o Options, progress func(Progress)) (Result, error) {
	budgetLeft := o.TotalBudget
	unbounded := o.TotalBudget == 0
	chunk := o.InitialSteps
	var res Result
	for round := 1; round <= o.MaxRounds; round++ {
		active := activeOf(cands)
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
		spent, err := runRound(ctx, g, pool, active, per, round, o)
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
		chunk = nextChunk(chunk, o.Growth)
	}
	return res, nil
}

// activeOf returns the candidates not yet pruned.
func activeOf(cands []*cand) []*cand {
	active := make([]*cand, 0, len(cands))
	for _, c := range cands {
		if c.active {
			active = append(active, c)
		}
	}
	return active
}

// runRound runs one chain per active candidate over a worker pool and
// returns the total MH steps actually run. Each candidate's trace is
// absorbed by the worker that ran it; candidates are disjoint, so no
// locking beyond the dispatch channel is needed. Chains are per steps
// long exactly, unless o.Adaptive lets a converged chain stop early —
// the returned step total is what the budget accounting deducts, so
// early stops refund their unspent steps. Each candidate's chain
// source is built on its first round and cached for later ones.
func runRound(ctx context.Context, g *graph.Graph, pool *mcmc.BufferPool, active []*cand, per, round int, o Options) (int, error) {
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
				r, err := runChain(ctx, g, pool, c, cfg, ChainSeed(o.Seed, round, c.v), o.Measure)
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
// with seed, building the candidate's internal/measure source on first
// use.
func runChain(ctx context.Context, g *graph.Graph, pool *mcmc.BufferPool, c *cand, cfg mcmc.Config, seed uint64, spec measure.Spec) (mcmc.Result, error) {
	if c.src == nil {
		src, err := measure.Source(ctx, g, spec, c.v, pool)
		if err != nil {
			return mcmc.Result{}, err
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
