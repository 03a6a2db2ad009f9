package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"bcmh/internal/brandes"
	"bcmh/internal/core"
	"bcmh/internal/graph"
)

// twoRingsGraph builds two cycles sharing one articulation vertex:
// ring A = 0..a-1, cut vertex a-1, ring B = a-1 with a..a+b-2. Edits
// confined to one ring provably leave the other ring's dependency
// columns unchanged — the retention scenario.
func twoRingsGraph(a, b int) *graph.Graph {
	bld := graph.NewBuilder(a + b - 1)
	for i := 0; i < a; i++ {
		bld.AddEdge(i, (i+1)%a)
	}
	ring := []int{a - 1}
	for i := 0; i < b-1; i++ {
		ring = append(ring, a+i)
	}
	for i := range ring {
		bld.AddEdge(ring[i], ring[(i+1)%len(ring)])
	}
	return bld.MustBuild()
}

// mustOverlay applies edits to g as an overlay descendant — the only
// graph SwapGraph installs.
func mustOverlay(t *testing.T, g *graph.Graph, edits []graph.Edit) (*graph.Graph, *graph.EditReport) {
	t.Helper()
	next, rep, err := graph.ApplyEditsOverlay(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	return next, rep
}

func TestSwapGraphRetainsProvablyUnaffectedMu(t *testing.T) {
	g := twoRingsGraph(8, 8) // A = 0..7, cut = 7, B = 7..14
	e, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	const inA, inB = 2, 10
	// Warm both μ entries.
	msA, err := e.MuStatsContext(context.Background(), inA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.MuStatsContext(context.Background(), inB); err != nil {
		t.Fatal(err)
	}
	missesBefore := e.Stats().MuMisses

	// Chord inside ring B.
	next, rep := mustOverlay(t, g, []graph.Edit{{Op: graph.EditAdd, U: 8, V: 12}})
	swap, err := e.SwapGraph(next, rep.Pairs)
	if err != nil {
		t.Fatal(err)
	}
	if swap.Version != 1 {
		t.Fatalf("swap version = %d, want 1", swap.Version)
	}
	if swap.MuRetained != 1 || swap.MuInvalidated != 1 {
		t.Fatalf("retained/invalidated = %d/%d, want 1/1", swap.MuRetained, swap.MuInvalidated)
	}
	if e.Version() != 1 || e.Graph() != next {
		t.Fatal("snapshot not swapped")
	}

	// The ring-A entry must be served without a new computation and
	// stay exact for the NEW graph.
	msA2, err := e.MuStatsContext(context.Background(), inA)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().MuMisses; got != missesBefore {
		t.Fatalf("retained μ entry recomputed: misses %d -> %d", missesBefore, got)
	}
	if msA2 != msA {
		t.Fatalf("retained μ entry changed: %+v vs %+v", msA2, msA)
	}
	wantA := brandes.BCOfVertexExact(next, inA)
	if diff := msA2.BC - wantA; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("retained BC(%d) = %v, exact on new graph = %v", inA, msA2.BC, wantA)
	}

	// The ring-B entry must be recomputed and match the new graph.
	msB2, err := e.MuStatsContext(context.Background(), inB)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().MuMisses; got != missesBefore+1 {
		t.Fatalf("invalidated μ entry not recomputed: misses %d -> %d", missesBefore, got)
	}
	wantB := brandes.BCOfVertexExact(next, inB)
	if diff := msB2.BC - wantB; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("recomputed BC(%d) = %v, exact on new graph = %v", inB, msB2.BC, wantB)
	}
}

func TestSwapGraphResultCacheIsVersionTagged(t *testing.T) {
	g := twoRingsGraph(8, 8)
	e, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Steps: 512, Seed: 7}
	const target = 10 // in ring B, where the edit lands
	before, err := e.EstimateContext(context.Background(), target, opts)
	if err != nil {
		t.Fatal(err)
	}

	next, rep := mustOverlay(t, g, []graph.Edit{{Op: graph.EditAdd, U: 8, V: 12}})
	if _, err := e.SwapGraph(next, rep.Pairs); err != nil {
		t.Fatal(err)
	}
	after, err := e.EstimateContext(context.Background(), target, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh engine over the mutated graph's clean CSR is the
	// reference: the post-swap estimate must be bit-identical to it,
	// proving the pre-mutation cache entry was not served.
	ref, err := New(next.Compact())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.EstimateContext(context.Background(), target, opts)
	if err != nil {
		t.Fatal(err)
	}
	if after.Value != want.Value {
		t.Fatalf("post-swap estimate %v != fresh-engine reference %v", after.Value, want.Value)
	}
	if before.Value == after.Value {
		t.Fatalf("estimate did not react to the mutation (both %v); the rewire should perturb the chain", before.Value)
	}
	// The old version's entry is still served to old-version keys only;
	// a repeat of the new request is a cache hit.
	hitsBefore := e.Stats().ResultHits
	again, err := e.EstimateContext(context.Background(), target, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Value != after.Value || e.Stats().ResultHits != hitsBefore+1 {
		t.Fatal("post-swap repeat not served from the versioned result cache")
	}
}

// TestSwapGraphInFlightEstimateIsBitIdentical pins snapshot isolation:
// an estimate that is mid-chain when SwapGraph lands completes
// bit-identically to a run with no mutation at all.
func TestSwapGraphInFlightEstimateIsBitIdentical(t *testing.T) {
	g := graph.Grid(40, 40)
	e, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	const target = 820
	opts := core.Options{Steps: 400000, Seed: 3}

	// Reference: same request on an engine that never mutates.
	refEng, err := New(graph.Grid(40, 40))
	if err != nil {
		t.Fatal(err)
	}
	want, err := refEng.EstimateContext(context.Background(), target, opts)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		est core.Estimate
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		est, err := e.EstimateContext(context.Background(), target, opts)
		done <- outcome{est, err}
	}()
	// estimateOn captures its snapshot before InFlight increments, so
	// once InFlight is visible the chain is pinned to the old graph.
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("estimate never became in-flight")
		}
		select {
		case out := <-done:
			// The chain finished before we could swap mid-flight; the
			// bit-identity claim still holds trivially.
			if out.err != nil {
				t.Fatal(out.err)
			}
			if out.est.Value != want.Value {
				t.Fatalf("estimate %v != reference %v", out.est.Value, want.Value)
			}
			return
		default:
		}
		time.Sleep(time.Millisecond)
	}
	next, rep := mustOverlay(t, g, []graph.Edit{
		{Op: graph.EditAdd, U: 0, V: 41},
		{Op: graph.EditAdd, U: 100, V: 141},
	})
	if _, err := e.SwapGraph(next, rep.Pairs); err != nil {
		t.Fatal(err)
	}
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.est.Value != want.Value {
		t.Fatalf("in-flight estimate %v != no-mutation reference %v", out.est.Value, want.Value)
	}
	// And a post-swap request sees the new graph.
	after, err := e.EstimateContext(context.Background(), target, opts)
	if err != nil {
		t.Fatal(err)
	}
	if after.Value == want.Value {
		t.Fatal("post-swap estimate identical to pre-swap; mutation not visible")
	}
}

// TestSwapGraphValidation pins SwapGraph's preconditions on the
// serving graph itself and on foreign graphs; failed swaps change
// nothing. Connectivity is the caller's contract (the store vets
// removed pairs before logging a batch; see the store's disconnection
// tests). The descendant and replay checks are in
// TestStreamSwapValidation.
func TestSwapGraphValidation(t *testing.T) {
	g := twoRingsGraph(6, 6)
	e, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	// Same version (0): regression.
	if _, err := e.SwapGraph(g, nil); !errors.Is(err, ErrVersionRegression) {
		t.Fatalf("version regression not rejected: %v", err)
	}
	// Vertex-count change: an overlay of another graph.
	bigger, rep := mustOverlay(t, twoRingsGraph(6, 7), []graph.Edit{{Op: graph.EditAdd, U: 0, V: 2}})
	if _, err := e.SwapGraph(bigger, rep.Pairs); err == nil {
		t.Fatal("vertex-count change accepted")
	}
	if _, err := e.SwapGraph(nil, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	if e.Version() != 0 {
		t.Fatalf("failed swaps advanced the version to %d", e.Version())
	}
}

// TestSwapGraphNilPairsInvalidatesAll pins the conservative fallback:
// with unknown edit provenance every μ entry is dropped.
func TestSwapGraphNilPairsInvalidatesAll(t *testing.T) {
	g := twoRingsGraph(6, 6)
	e, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2, 9} {
		if _, err := e.MuStatsContext(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	next, _ := mustOverlay(t, g, []graph.Edit{{Op: graph.EditAdd, U: 8, V: 10}})
	swap, err := e.SwapGraph(next, nil)
	if err != nil {
		t.Fatal(err)
	}
	if swap.MuRetained != 0 || swap.MuInvalidated != 3 {
		t.Fatalf("retained/invalidated = %d/%d, want 0/3", swap.MuRetained, swap.MuInvalidated)
	}
}

// TestSwapGraphSequence walks several mutation generations and checks
// exact values track the current graph at every step.
func TestSwapGraphSequence(t *testing.T) {
	g := twoRingsGraph(7, 7)
	e, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	cur := g
	for gen := 1; gen <= 4; gen++ {
		u, v := 7+gen-1, 7+((gen+2)%6) // chords inside ring B
		if cur.HasEdge(u, v) || u == v {
			continue
		}
		next, rep := mustOverlay(t, cur, []graph.Edit{{Op: graph.EditAdd, U: u, V: v}})
		if !graph.IsConnected(next) {
			t.Fatal("setup: disconnected")
		}
		if _, err := e.SwapGraph(next, rep.Pairs); err != nil {
			t.Fatal(err)
		}
		if e.Version() != uint64(gen) {
			t.Fatalf("version = %d, want %d", e.Version(), gen)
		}
		for _, r := range []int{2, 9} {
			ms, err := e.MuStatsContext(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			want := brandes.BCOfVertexExact(next, r)
			if diff := ms.BC - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatal(fmt.Sprintf("gen %d: exact BC(%d) = %v, want %v", gen, r, ms.BC, want))
			}
		}
		cur = next
	}
}
