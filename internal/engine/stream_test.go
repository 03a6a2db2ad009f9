package engine

import (
	"context"
	"errors"
	"testing"

	"bcmh/internal/brandes"
	"bcmh/internal/core"
	"bcmh/internal/graph"
)

// TestStreamSwapReusesPoolAndRetainsMu pins SwapGraph's carry-over:
// the buffer pool object survives the swap (no rebuild), μ retention
// follows the block rule (the tracker is exact on its first batch,
// when the forest is fresh), and estimates on the overlay snapshot
// match a fresh engine over its clean CSR.
func TestStreamSwapReusesPoolAndRetainsMu(t *testing.T) {
	g := twoRingsGraph(8, 8) // A = 0..7, cut = 7, B = 7..14
	e, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const inA, inB = 2, 10
	msA, err := e.MuStatsContext(ctx, inA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.MuStatsContext(ctx, inB); err != nil {
		t.Fatal(err)
	}
	missesBefore := e.Stats().MuMisses
	pool := e.Pool()

	next, rep := mustOverlay(t, e.Graph(), []graph.Edit{{Op: graph.EditAdd, U: 8, V: 12}})
	swap, err := e.SwapGraph(next, rep.Pairs)
	if err != nil {
		t.Fatal(err)
	}
	if swap.Version != 1 || e.Version() != 1 || e.Graph() != next {
		t.Fatalf("swap not installed: %+v, serving %d", swap, e.Version())
	}
	if e.Pool() != pool {
		t.Fatal("SwapGraph rebuilt the buffer pool; it must carry it over")
	}
	if swap.MuRetained != 1 || swap.MuInvalidated != 1 {
		t.Fatalf("retained/invalidated = %d/%d, want 1/1", swap.MuRetained, swap.MuInvalidated)
	}

	// The ring-A entry serves without recomputation and stays exact.
	msA2, err := e.MuStatsContext(ctx, inA)
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
	// The ring-B entry recomputes against the overlay graph.
	msB2, err := e.MuStatsContext(ctx, inB)
	if err != nil {
		t.Fatal(err)
	}
	wantB := brandes.BCOfVertexExact(next, inB)
	if diff := msB2.BC - wantB; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("recomputed BC(%d) = %v, exact on new graph = %v", inB, msB2.BC, wantB)
	}

	// Estimates on the overlay snapshot are bit-identical to a fresh
	// engine over the same logical graph.
	opts := core.Options{Steps: 2048, Seed: 11}
	got, err := e.EstimateContext(ctx, inB, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(next.Compact())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.EstimateContext(ctx, inB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value {
		t.Fatalf("overlay-snapshot estimate %v != fresh-engine reference %v", got.Value, want.Value)
	}
}

// TestStreamSwapChained walks several overlay generations through one
// engine and pool, checking exactness at every step.
func TestStreamSwapChained(t *testing.T) {
	e, err := New(twoRingsGraph(7, 7))
	if err != nil {
		t.Fatal(err)
	}
	pool := e.Pool()
	edits := [][2]int{{7, 9}, {8, 10}, {9, 11}, {10, 12}}
	for gen, uv := range edits {
		cur := e.Graph()
		next, rep := mustOverlay(t, cur, []graph.Edit{{Op: graph.EditAdd, U: uv[0], V: uv[1]}})
		if _, err := e.SwapGraph(next, rep.Pairs); err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		if e.Pool() != pool {
			t.Fatalf("gen %d: pool replaced", gen)
		}
		for _, r := range []int{2, 9} {
			ms, err := e.MuStatsContext(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			want := brandes.BCOfVertexExact(next, r)
			if diff := ms.BC - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("gen %d: exact BC(%d) = %v, want %v", gen, r, ms.BC, want)
			}
		}
	}
}

// TestSwapGraphOverlayDescendantReusesPool: SwapGraph keeps the pool
// for an overlay descendant, and rejects a rebuilt CSR of the next
// batch without touching the pool, the serving graph or the version.
func TestSwapGraphOverlayDescendantReusesPool(t *testing.T) {
	e, err := New(twoRingsGraph(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	pool := e.Pool()
	next, rep := mustOverlay(t, e.Graph(), []graph.Edit{{Op: graph.EditAdd, U: 8, V: 12}})
	if _, err := e.SwapGraph(next, rep.Pairs); err != nil {
		t.Fatal(err)
	}
	if e.Pool() != pool {
		t.Fatal("SwapGraph should reuse the pool for an overlay descendant")
	}
	// A rebuilt CSR is refused; nothing is swapped.
	rebuilt, rep2, err := graph.ApplyEdits(next.Compact(), []graph.Edit{{Op: graph.EditAdd, U: 9, V: 13}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SwapGraph(rebuilt, rep2.Pairs); err == nil {
		t.Fatal("SwapGraph accepted a rebuilt CSR")
	}
	if e.Pool() != pool || e.Graph() != next || e.Version() != 1 {
		t.Fatalf("rejected swap changed state: pool kept %v, graph kept %v, version %d",
			e.Pool() == pool, e.Graph() == next, e.Version())
	}
}

// TestStreamSwapValidation pins SwapGraph's descendant preconditions:
// a rebuilt CSR is not an overlay descendant, and a version already
// installed cannot be installed again.
func TestStreamSwapValidation(t *testing.T) {
	e, err := New(twoRingsGraph(6, 6))
	if err != nil {
		t.Fatal(err)
	}
	g := e.Graph()
	rebuilt, _, err := graph.ApplyEdits(g, []graph.Edit{{Op: graph.EditAdd, U: 0, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SwapGraph(rebuilt, [][2]int{{0, 2}}); err == nil {
		t.Fatal("SwapGraph accepted a rebuilt CSR")
	}
	if _, err := e.SwapGraph(nil, nil); err == nil {
		t.Fatal("SwapGraph accepted a nil graph")
	}
	// Version must advance: install an overlay bump, then offer it again.
	next, rep := mustOverlay(t, g, []graph.Edit{{Op: graph.EditAdd, U: 0, V: 2}})
	if _, err := e.SwapGraph(next, rep.Pairs); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SwapGraph(next, rep.Pairs); !errors.Is(err, ErrVersionRegression) {
		t.Fatalf("replayed version not rejected: %v", err)
	}
	if e.Version() != 1 {
		t.Fatalf("failed swaps moved the version to %d", e.Version())
	}
}

// TestInstallCompacted pins the compaction handoff: same version, same
// pool, μ-cache intact, and later edit batches chain off the new
// storage.
func TestInstallCompacted(t *testing.T) {
	e, err := New(twoRingsGraph(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	next, rep := mustOverlay(t, e.Graph(), []graph.Edit{{Op: graph.EditAdd, U: 8, V: 12}})
	if _, err := e.SwapGraph(next, rep.Pairs); err != nil {
		t.Fatal(err)
	}
	if _, err := e.MuStatsContext(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	missesBefore := e.Stats().MuMisses
	pool := e.Pool()

	c := e.Graph().Compact()
	// Wrong version is refused.
	stale := twoRingsGraph(8, 8)
	if err := e.InstallCompacted(stale); err == nil {
		t.Fatal("InstallCompacted accepted a version mismatch")
	}
	if err := e.InstallCompacted(c); err != nil {
		t.Fatal(err)
	}
	if e.Version() != 1 || e.Graph() != c {
		t.Fatal("compacted graph not installed at the serving version")
	}
	if e.Pool() != pool {
		t.Fatal("InstallCompacted must keep the buffer pool")
	}
	if _, err := e.MuStatsContext(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().MuMisses; got != missesBefore {
		t.Fatalf("μ-cache lost across compaction: misses %d -> %d", missesBefore, got)
	}

	// Edit batches keep flowing on the compacted storage.
	next2, rep2 := mustOverlay(t, c, []graph.Edit{{Op: graph.EditAdd, U: 9, V: 13}})
	if _, err := e.SwapGraph(next2, rep2.Pairs); err != nil {
		t.Fatal(err)
	}
	ms, err := e.MuStatsContext(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	want := brandes.BCOfVertexExact(next2, 10)
	if diff := ms.BC - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("post-compaction exact BC = %v, want %v", ms.BC, want)
	}
}
