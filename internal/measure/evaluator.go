package measure

import (
	"fmt"

	"bcmh/internal/graph"
	"bcmh/internal/sssp"
)

// Evaluator is one chain's view of a measure: it computes the
// per-vertex statistic d_v(r) on demand and implements
// mcmc.StatOracle, so the single-space chain drives (and memoises) it
// exactly like the BC identity oracle. It owns the mutable traversal
// state (a BFS kernel for coverage/kpath — kernels are not
// concurrency-safe), so each chain needs its own Evaluator; the
// expensive read-only state is shared through the Target.
type Evaluator struct {
	t   *Target
	bfs *sssp.BFS // coverage, kpath (nil for rwbc)
}

// NewEvaluator returns an evaluator for t over g (the graph t was
// built on).
func NewEvaluator(g *graph.Graph, t *Target) (*Evaluator, error) {
	if t == nil {
		return nil, fmt.Errorf("measure: nil target")
	}
	e := &Evaluator{t: t}
	switch t.Spec.Kind {
	case Coverage, KPath:
		e.bfs = sssp.NewBFS(g)
	case RWBC:
		// Evaluation reads only the immutable flow tables.
	default:
		return nil, fmt.Errorf("measure: no evaluator for %s", t.Spec)
	}
	return e, nil
}

// Dep returns d_v(r): the mcmc.StatOracle hook the chain calls on each
// memo miss, and the per-vertex step of ExactColumn.
func (e *Evaluator) Dep(v int) float64 {
	switch e.t.Spec.Kind {
	case Coverage:
		return e.pathDep(v, false)
	case KPath:
		return e.pathDep(v, true)
	default: // RWBC
		return e.t.flow.dep(v)
	}
}

// pathDep runs one BFS from v and scans the target-side snapshot with
// the shortest-path identity d(v,r) + d(r,t) = d(v,t) — the same loop
// as brandes.DependencyOnTargetIdentity, with the measure's twist:
// coverage replaces the σ-ratio by an indicator (count the covered
// t), kpath keeps the σ-ratio but admits only pairs within K hops
// (d(v,t) ≤ K). Both are 0 at v = r by the endpoint convention the
// stack shares with betweenness.
func (e *Evaluator) pathDep(v int, bounded bool) float64 {
	r := e.t.R
	if v == r {
		return 0
	}
	b := e.bfs
	b.Run(v)
	if !b.Reached(r) {
		return 0
	}
	dvr := b.DistOf(r)
	kCap := int32(0)
	if bounded {
		kCap = int32(e.t.Spec.K)
		if dvr > kCap {
			// d(v,t) = d(v,r) + d(r,t) ≥ d(v,r) > K for every
			// admissible t: nothing to scan.
			return 0
		}
	}
	ts := e.t.tspd
	svr := b.SigmaOf(r)
	var sum float64
	if ord := b.Ordering(); ord != nil {
		// Tag-compare fast path, mirroring brandes.DependencyOnTarget-
		// Identity: reached + distance-identity + t ≠ r collapse to a
		// single uint64 tag compare per t, while iteration and
		// accumulation stay in external index order so the sum is
		// bit-identical to the reference scan below. d(v,t) = dvr + drt
		// whenever the identity holds, so the kpath bound needs no
		// separate distance read.
		tag, sigma, ep := b.Raw()
		base := uint64(ep)<<32 + uint64(uint32(dvr))
		for t, drt := range ts.Dist {
			if drt < 0 || t == r {
				continue
			}
			s := ord.Perm[t]
			if tag[s] != base+uint64(uint32(drt)) {
				continue
			}
			if bounded {
				if dvr+drt > kCap {
					continue
				}
				sum += svr * ts.Sigma[t] / sigma[s]
			} else {
				sum++
			}
		}
		return sum
	}
	for t, drt := range ts.Dist {
		if drt < 0 || !b.Reached(t) || t == r {
			continue
		}
		dvt := b.DistOf(t)
		if dvr+drt != dvt {
			continue
		}
		if bounded {
			if dvt > kCap {
				continue
			}
			sum += svr * ts.Sigma[t] / b.SigmaOf(t)
		} else {
			sum++
		}
	}
	return sum
}
