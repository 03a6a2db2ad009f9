// Package measure is the first-class centrality-measure abstraction
// behind the serving stack's measure-generic estimation API. The
// paper's MH estimator is one instance of a family: any per-vertex
// statistic d_v(r) ≥ 0 can drive the same single-space chain
// (stationary distribution ∝ d, estimators reading f = d/(n−1)), the
// same μ = max d / mean d concentration planning, and the same
// adaptive stopping rule, as long as it shares betweenness's
// normalisation
//
//	Value(r) = Σ_v d_v(r) / (n·(n−1)),  f(v) = d_v(r)/(n−1) ∈ [0,1].
//
// Every measure in this package is defined to satisfy exactly that, so
// internal/mcmc, the Eq. 14 planner, and the estimator variants apply
// verbatim. A measure contributes four things: a name (Kind/Spec), a
// per-vertex statistic evaluator (Evaluator, an mcmc.StatOracle, which
// the chain loop memoises exactly as it memoises betweenness), its
// exact column for μ/ground-truth derivation (ExactColumn/Stats), and
// a supported-graph-class predicate (Spec.Supports).
//
// The measures:
//
//   - BC: the paper's betweenness, d_v(r) = δ_v•(r). Not re-implemented
//     here: Source returns mcmc.BC(r) for Spec{Kind: BC}, whose chains
//     read the identity oracles on pooled buffers, bit-identical to the
//     pre-measure API.
//   - Coverage: d_v(r) counts the vertices t with d(v,r) + d(r,t) =
//     d(v,t), t ∉ {v,r} — how many ordered pairs (v,·) have r on some
//     shortest path. Value(r) is the covered-pair fraction of
//     arXiv:1810.10094's coverage centrality. Same BFS + target-side
//     snapshot kernel as betweenness, with the σ-ratio replaced by an
//     indicator.
//   - KPath: bounded-radius betweenness, the betweenness identity
//     restricted to pairs within K hops (d(v,t) ≤ K): local centrality
//     in the spirit of k-path/k-bounded variants, on the same kernels.
//     K defaults to DefaultKPathK; as K reaches the diameter it
//     degenerates to BC exactly (a property the tests pin).
//   - RWBC: Newman's random-walk (current-flow) betweenness
//     (cond-mat/0309045), d_v(r) = Σ_{t≠v} T_r(v,t) where T_r(v,t) is
//     r's current throughput for a unit v→t flow (endpoint convention
//     T_r = 1 when r ∈ {v,t}). Needs no shortest paths at all: the
//     per-target state is deg(r) Laplacian solves (internal/linalg's
//     CG kernel), after which one evaluation is O(deg(r)·log n) via
//     sorted prefix sums.
package measure

import (
	"fmt"

	"bcmh/internal/graph"
)

// Kind enumerates the supported centrality measures.
type Kind uint8

const (
	// BC is shortest-path betweenness — the default, sampled as
	// mcmc.BC.
	BC Kind = iota
	// Coverage is shortest-path coverage centrality.
	Coverage
	// KPath is betweenness restricted to pairs within K hops.
	KPath
	// RWBC is Newman's random-walk (current-flow) betweenness.
	RWBC
)

// String returns the wire name of the kind ("bc", "coverage", "kpath",
// "rwbc") — the values the measure= API parameter accepts.
func (k Kind) String() string {
	switch k {
	case BC:
		return "bc"
	case Coverage:
		return "coverage"
	case KPath:
		return "kpath"
	case RWBC:
		return "rwbc"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DefaultKPathK is the hop bound a kpath request gets when it names
// none. Diameters of the sparse social/web-like graphs this repo
// targets sit around 2·ln n / ln ln n; 8 keeps the measure genuinely
// local on them without collapsing to triviality.
const DefaultKPathK = 8

// Spec is one fully parameterised measure: the kind plus its
// parameters (only KPath has one). The zero value is plain BC, which
// is what makes Spec a drop-in extension of every cache key and
// request struct in the serving stack: pre-measure requests normalise
// to the zero Spec and hit exactly the entries they used to.
type Spec struct {
	Kind Kind
	// K is the KPath hop bound (0 for every other kind).
	K int
}

// Parse resolves a wire name and optional k parameter to a Spec. An
// empty name is the default (bc). Unknown names and misplaced k are
// errors — the serving layer maps them to its pinned 400.
func Parse(name string, k int) (Spec, error) {
	var s Spec
	switch name {
	case "", "bc":
		s.Kind = BC
	case "coverage":
		s.Kind = Coverage
	case "kpath":
		s.Kind = KPath
		if k == 0 {
			k = DefaultKPathK
		}
		s.K = k
	case "rwbc":
		s.Kind = RWBC
	default:
		return Spec{}, fmt.Errorf("measure: unknown measure %q (want bc, coverage, kpath, or rwbc)", name)
	}
	if s.Kind != KPath && k != 0 {
		return Spec{}, fmt.Errorf("measure: measure_k only applies to kpath, not %q", s.Kind)
	}
	return s, s.Validate()
}

// String returns the canonical request form: the kind name, with the
// hop bound for kpath ("kpath(k=8)").
func (s Spec) String() string {
	if s.Kind == KPath {
		return fmt.Sprintf("kpath(k=%d)", s.K)
	}
	return s.Kind.String()
}

// Validate checks internal consistency (known kind, k where — and only
// where — it belongs).
func (s Spec) Validate() error {
	switch s.Kind {
	case BC, Coverage, RWBC:
		if s.K != 0 {
			return fmt.Errorf("measure: %s takes no k parameter", s.Kind)
		}
	case KPath:
		if s.K < 1 {
			return fmt.Errorf("measure: kpath requires k >= 1, got %d", s.K)
		}
	default:
		return fmt.Errorf("measure: unknown kind %d", int(s.Kind))
	}
	return nil
}

// IsBC reports whether s is the default measure, betweenness, whose
// chain source is mcmc.BC and whose μ derivation is the pooled
// mcmc.MuExactPooledContext.
func (s Spec) IsBC() bool { return s.Kind == BC }

// Supports is the measure's graph-class predicate: a nil error means
// the measure is defined (and implemented) on g. The serving layers
// (engine/store) call this before dispatching and map failures to
// their pinned 400. Connectivity and undirectedness are the stack-wide
// requirements enforced at graph preparation; this predicate adds the
// per-measure restrictions on top:
//
//   - bc: any prepared graph, weighted or not (the Dijkstra identity
//     route serves weighted ones);
//   - coverage, kpath: unweighted only — the hop-count semantics of
//     both measures read BFS levels, and the weighted generalisation
//     has genuinely different (tolerance-laden) tie rules this package
//     does not pretend to settle;
//   - rwbc: unweighted only — this repo's edge weights are
//     shortest-path lengths, and silently reinterpreting a length as
//     an electrical conductance (its reciprocal, if anything) would be
//     a semantic trap.
func (s Spec) Supports(g *graph.Graph) error {
	if g == nil {
		return fmt.Errorf("measure: nil graph")
	}
	switch s.Kind {
	case BC:
		return nil
	case Coverage, KPath, RWBC:
		if g.Directed() {
			return fmt.Errorf("measure: %s requires an undirected graph", s.Kind)
		}
		if g.Weighted() {
			return fmt.Errorf("measure: %s is only defined on unweighted graphs (edge weights here are path lengths, which %s semantics do not consume)", s.Kind, s.Kind)
		}
		return nil
	default:
		return fmt.Errorf("measure: unknown kind %d", int(s.Kind))
	}
}
