// Dynamic graphs — the evolving-network setting the paper's cheap
// estimators are made for (and the follow-up adaptive-estimation work
// of Chehreghani et al. targets directly): when the graph changes, an
// MH re-estimate costs a few thousand traversals, not a rebuild of
// the world.
//
// The example builds a scale-free graph with a pendant ring community
// hanging off it, stands up an estimation engine, and then *rewires
// the hub* with a copy-on-write edit batch (graph.ApplyEditsOverlay +
// engine.SwapGraph, the pipeline every PATCH runs): a few hub edges
// are deleted and replaced by periphery shortcuts. It prints how the hub's exact betweenness and
// its MH estimate move, and shows the engine's version-aware μ-cache
// at work — the ring vertex's cached profile survives the swap
// (provably unaffected, by the biconnected-component retention rule),
// while the hub's is invalidated and recomputed.
//
//	go run ./examples/dynamic
package main

import (
	"context"
	"fmt"
	"log"

	"bcmh/internal/core"
	"bcmh/internal/engine"
	"bcmh/internal/graph"
	"bcmh/internal/mcmc"
	"bcmh/internal/rng"
)

const (
	baN     = 400 // scale-free core
	ringN   = 30  // pendant ring community
	steps   = 20000
	seed    = 7
	rewires = 3
)

func main() {
	// Scale-free core 0..baN-1 plus a ring baN..baN+ringN-1, attached
	// to vertex 0 by a single bridge — so the ring is its own
	// biconnected block, separated from the core by the articulation
	// vertex 0.
	r := rng.New(2026)
	ba := graph.BarabasiAlbert(baN, 3, r)
	b := graph.NewBuilder(baN + ringN)
	ba.ForEachEdge(func(u, v int, _ float64) { b.AddEdge(u, v) })
	for i := 0; i < ringN; i++ {
		b.AddEdge(baN+i, baN+(i+1)%ringN)
	}
	b.AddEdge(0, baN)
	g := b.MustBuild()
	fmt.Println("graph:", g)

	eng, err := engine.New(g)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	hub := 0
	for v := 1; v < baN; v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	ringV := baN + ringN/2
	// Proposal-side estimator: unbiased for BC(r), so the estimate
	// tracks the exact value's magnitude, not just its direction (the
	// chain average carries a vertex-dependent asymptotic inflation).
	opts := core.Options{Steps: steps, Seed: seed, Estimator: mcmc.EstimatorProposalSide}

	// Before: estimate the hub, and warm μ entries for both the hub
	// and a ring vertex.
	estBefore, err := eng.EstimateContext(ctx, hub, opts)
	if err != nil {
		log.Fatal(err)
	}
	muHubBefore, err := eng.MuStatsContext(ctx, hub)
	if err != nil {
		log.Fatal(err)
	}
	muRingBefore, err := eng.MuStatsContext(ctx, ringV)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhub = vertex %d (degree %d), ring witness = vertex %d\n", hub, g.Degree(hub), ringV)
	fmt.Printf("before: exact BC(hub) = %.6f, MH estimate = %.6f (%d steps)\n",
		muHubBefore.BC, estBefore.Value, estBefore.PlannedSteps)

	// Rewire: drop a few hub edges (keeping the graph connected) and
	// route periphery shortcuts around it.
	var edits []graph.Edit
	cur := g
	for _, nb := range g.Neighbors(hub) {
		if len(edits) == rewires {
			break
		}
		trial, _, err := graph.ApplyEditsOverlay(cur, []graph.Edit{{Op: graph.EditRemove, U: hub, V: nb}})
		if err != nil || !graph.PairConnected(trial, hub, nb) {
			continue // that edge was load-bearing; keep it
		}
		edits = append(edits, graph.Edit{Op: graph.EditRemove, U: hub, V: nb})
		cur = trial
	}
	for added := 0; added < rewires; {
		u, v := r.Intn(baN), r.Intn(baN)
		if u == v || u == hub || v == hub || cur.HasEdge(u, v) {
			continue
		}
		edits = append(edits, graph.Edit{Op: graph.EditAdd, U: u, V: v})
		cur, _, err = graph.ApplyEditsOverlay(cur, []graph.Edit{{Op: graph.EditAdd, U: u, V: v}})
		if err != nil {
			log.Fatal(err)
		}
		added++
	}
	next, rep, err := graph.ApplyEditsOverlay(eng.Graph(), edits)
	if err != nil {
		log.Fatal(err)
	}
	swap, err := eng.SwapGraph(next, rep.Pairs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\napplied batch: -%d hub edges, +%d shortcuts -> version %d\n", rep.Removed, rep.Added, swap.Version)
	fmt.Printf("μ-cache across the swap: %d retained, %d invalidated (%d of %d vertices in the affected region)\n",
		swap.MuRetained, swap.MuInvalidated, swap.Affected, next.N())

	// After: re-estimate on the new version. The ring witness is
	// served from the retained entry — no new O(nm) computation.
	missesBefore := eng.Stats().MuMisses
	estAfter, err := eng.EstimateContext(ctx, hub, opts)
	if err != nil {
		log.Fatal(err)
	}
	muHubAfter, err := eng.MuStatsContext(ctx, hub)
	if err != nil {
		log.Fatal(err)
	}
	muRingAfter, err := eng.MuStatsContext(ctx, ringV)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter:  exact BC(hub) = %.6f, MH estimate = %.6f\n", muHubAfter.BC, estAfter.Value)
	fmt.Printf("\n%-24s %12s %12s %9s\n", "", "before", "after", "moved")
	row := func(name string, before, after float64) {
		fmt.Printf("%-24s %12.6f %12.6f %+8.1f%%\n", name, before, after, 100*(after-before)/before)
	}
	row("exact BC(hub)", muHubBefore.BC, muHubAfter.BC)
	row("MH estimate(hub)", estBefore.Value, estAfter.Value)
	row("exact BC(ring witness)", muRingBefore.BC, muRingAfter.BC)
	fmt.Printf("\nestimate tracks the exact move; the ring witness is untouched by construction\n")
	if muRingAfter.BC != muRingBefore.BC {
		log.Fatal("BUG: the ring witness moved — retention would be unsound")
	}
	if misses := eng.Stats().MuMisses; misses == missesBefore+1 {
		fmt.Printf("μ recomputations after the swap: 1 (the hub); the ring witness was a cache hit\n")
	} else {
		fmt.Printf("μ recomputations after the swap: %d\n", misses-missesBefore)
	}
}
