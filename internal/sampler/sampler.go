// Package sampler implements the prior betweenness estimators the paper
// compares against (§3.2): uniform source sampling (Bader et al. [2]),
// distance-proportional source sampling (Chehreghani [13]),
// shortest-path pair sampling (Riondato–Kornaropoulos [30]), and a
// bidirectional-BFS path sampler in the spirit of KADABRA [7].
//
// Budget semantics: every estimator's `samples` argument counts
// traversal-shaped units of work — one BFS/Dijkstra + dependency
// accumulation for the source samplers, one path-sampling traversal for
// the pair samplers — so an equal-budget comparison (experiment F1) is
// an equal-work comparison to within constant factors, with bb-BFS's
// cheaper traversals measured separately (T7).
//
// All estimates target the paper's Eq. 1 normalisation: BC(v) ∈ [0,1].
package sampler

import (
	"fmt"

	"bcmh/internal/brandes"
	"bcmh/internal/graph"
	"bcmh/internal/rng"
	"bcmh/internal/sssp"
)

// PointEstimator estimates the betweenness of one fixed target vertex.
type PointEstimator interface {
	// Estimate returns an estimate of BC(target) using the given number
	// of samples and randomness source.
	Estimate(samples int, r *rng.RNG) float64
}

// UniformSource is the uniform source sampler of Bader et al. [2]: draw
// sources uniformly, average δ_s•(target)/(n−1). Unbiased; Hoeffding
// gives its (ε,δ) sample size (the f-values lie in [0,1]).
type UniformSource struct {
	g      *graph.Graph
	c      *sssp.Computer
	delta  []float64
	target int
}

// NewUniformSource returns a uniform source sampler for BC(target).
func NewUniformSource(g *graph.Graph, target int) (*UniformSource, error) {
	if target < 0 || target >= g.N() {
		return nil, fmt.Errorf("sampler: target %d out of range", target)
	}
	return &UniformSource{
		g:      g,
		c:      sssp.NewComputer(g),
		delta:  make([]float64, g.N()),
		target: target,
	}, nil
}

// Estimate implements PointEstimator.
func (u *UniformSource) Estimate(samples int, r *rng.RNG) float64 {
	if samples <= 0 {
		return 0
	}
	n := u.g.N()
	var sum float64
	for i := 0; i < samples; i++ {
		s := r.Intn(n)
		sum += brandes.DependencyOnTarget(u.c, u.delta, s, u.target) / float64(n-1)
	}
	return sum / float64(samples)
}

// EstimateAll returns a length-n estimate vector: each sampled
// source's full dependency vector updates every vertex, so one budget
// estimates all of V(G) — the form used for rankings (experiment T6).
func (u *UniformSource) EstimateAll(samples int, r *rng.RNG) []float64 {
	n := u.g.N()
	out := make([]float64, n)
	if samples <= 0 {
		return out
	}
	for i := 0; i < samples; i++ {
		s := r.Intn(n)
		spd := u.c.Run(s)
		brandes.Accumulate(u.g, spd, u.delta)
		for v := 0; v < n; v++ {
			out[v] += u.delta[v]
		}
	}
	scale := 1 / (float64(samples) * float64(n-1))
	for v := range out {
		out[v] *= scale
	}
	return out
}

// DistanceSource is the distance-proportional sampler of Chehreghani
// [13]: sources are drawn with P[s] ∝ d(target, s) and each sample is
// importance-weighted back to an unbiased estimate of BC(target). The
// intuition is that far-away sources carry more dependency mass on
// average than near ones, so this lowers variance versus uniform on
// high-diameter graphs.
type DistanceSource struct {
	g       *graph.Graph
	c       *sssp.Computer
	delta   []float64
	target  int
	dist    []float64 // d(target, ·)
	total   float64   // Σ_s d(target, s)
	alias   *rng.Alias
	nFactor float64 // 1/(n(n-1))
}

// NewDistanceSource returns a distance-proportional sampler for
// BC(target). The graph must be connected (the sampler's distribution
// is undefined on unreachable sources).
func NewDistanceSource(g *graph.Graph, target int) (*DistanceSource, error) {
	n := g.N()
	if target < 0 || target >= n {
		return nil, fmt.Errorf("sampler: target %d out of range", target)
	}
	c := sssp.NewComputer(g)
	spd := c.Run(target)
	d := &DistanceSource{
		g:       g,
		c:       c,
		delta:   make([]float64, n),
		target:  target,
		dist:    append([]float64(nil), spd.Dist...),
		nFactor: 1 / (float64(n) * float64(n-1)),
	}
	weights := make([]float64, n)
	for v := 0; v < n; v++ {
		if spd.Dist[v] == sssp.Unreachable {
			return nil, fmt.Errorf("sampler: graph disconnected (vertex %d unreachable from target %d)", v, target)
		}
		weights[v] = spd.Dist[v] // 0 at the target itself
		d.total += weights[v]
	}
	if d.total == 0 {
		return nil, fmt.Errorf("sampler: degenerate graph (all distances zero)")
	}
	d.alias = rng.NewAlias(weights)
	return d, nil
}

// Estimate implements PointEstimator.
func (d *DistanceSource) Estimate(samples int, r *rng.RNG) float64 {
	if samples <= 0 {
		return 0
	}
	var sum float64
	for i := 0; i < samples; i++ {
		s := d.alias.Draw(r)
		dep := brandes.DependencyOnTarget(d.c, d.delta, s, d.target)
		// Importance weight: δ_s(r) / (n(n-1) P[s]), P[s] = d(r,s)/total.
		sum += dep * d.total / d.dist[s] * d.nFactor
	}
	return sum / float64(samples)
}

// RK is the Riondato–Kornaropoulos shortest-path sampler [30]: draw a
// uniform ordered pair (s,t), sample one uniform shortest s→t path, and
// credit 1/samples to every interior vertex. E[estimate_v] = BC(v)
// under Eq. 1's normalisation; [30] gives the VC-dimension sample size
// for a uniform guarantee over all vertices.
type RK struct {
	g      *graph.Graph
	c      *sssp.Computer
	target int
}

// NewRK returns an RK sampler for BC(target) on g.
func NewRK(g *graph.Graph, target int) (*RK, error) {
	if target < 0 || target >= g.N() {
		return nil, fmt.Errorf("sampler: target %d out of range", target)
	}
	return &RK{g: g, c: sssp.NewComputer(g), target: target}, nil
}

// Estimate implements PointEstimator.
func (k *RK) Estimate(samples int, r *rng.RNG) float64 {
	if samples <= 0 {
		return 0
	}
	hits := 0
	n := k.g.N()
	for i := 0; i < samples; i++ {
		s := r.Intn(n)
		t := r.Intn(n)
		if s == t {
			continue // (s,s) carries no interior vertices; keep budget accounting simple
		}
		spd := k.c.Run(s)
		path := sssp.SamplePath(k.g, spd, t, r)
		if len(path) > 2 {
			for _, v := range path[1 : len(path)-1] {
				if v == k.target {
					hits++
					break
				}
			}
		}
	}
	// Correct for the 1/n chance of drawing s == t, which the estimator
	// treats as "no interior vertex": scale back to pairs s≠t.
	return float64(hits) / float64(samples) * float64(n) / float64(n-1)
}

// EstimateAll returns a length-n estimate vector from one pair-sampling
// budget.
func (k *RK) EstimateAll(samples int, r *rng.RNG) []float64 {
	n := k.g.N()
	out := make([]float64, n)
	if samples <= 0 {
		return out
	}
	for i := 0; i < samples; i++ {
		s := r.Intn(n)
		t := r.Intn(n)
		if s == t {
			continue
		}
		spd := k.c.Run(s)
		path := sssp.SamplePath(k.g, spd, t, r)
		if len(path) > 2 {
			for _, v := range path[1 : len(path)-1] {
				out[v]++
			}
		}
	}
	scale := float64(n) / (float64(samples) * float64(n-1))
	for v := range out {
		out[v] *= scale
	}
	return out
}

// KadabraLite replaces RK's full-BFS path sampling with balanced
// bidirectional BFS, the core trick of KADABRA [7]. Identical estimator
// distribution, far less work per sample on low-diameter graphs; the
// adaptive stopping rule of the full KADABRA is out of scope (the paper
// compares sampling strategies, not stopping rules).
type KadabraLite struct {
	g      *graph.Graph
	bb     *sssp.BBPathSampler
	target int
}

// NewKadabraLite returns a bb-BFS pair sampler for BC(target) on the
// unweighted graph g.
func NewKadabraLite(g *graph.Graph, target int) (*KadabraLite, error) {
	if target < 0 || target >= g.N() {
		return nil, fmt.Errorf("sampler: target %d out of range", target)
	}
	if g.Weighted() {
		return nil, fmt.Errorf("sampler: KadabraLite requires an unweighted graph")
	}
	return &KadabraLite{g: g, bb: sssp.NewBBPathSampler(g), target: target}, nil
}

// Estimate implements PointEstimator.
func (k *KadabraLite) Estimate(samples int, r *rng.RNG) float64 {
	if samples <= 0 {
		return 0
	}
	hits := 0
	n := k.g.N()
	for i := 0; i < samples; i++ {
		s := r.Intn(n)
		t := r.Intn(n)
		if s == t {
			continue
		}
		path := k.bb.Sample(s, t, r)
		if len(path) > 2 {
			for _, v := range path[1 : len(path)-1] {
				if v == k.target {
					hits++
					break
				}
			}
		}
	}
	return float64(hits) / float64(samples) * float64(n) / float64(n-1)
}
