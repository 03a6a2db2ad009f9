package sssp

import (
	"fmt"
	"math"
	"testing"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
)

// assertKernelsAgree compares the latest runs of two kernels over the
// same graph for bit-equality: identical reached sets, identical
// distances, identical σ (float64 == is the point — path counts must
// match to the bit, not within tolerance, by the SigmaExactLimit
// argument in sigma.go).
func assertKernelsAgree(t *testing.T, hy, cl *BFS, n int, ctxt string) {
	t.Helper()
	for v := 0; v < n; v++ {
		if hy.Reached(v) != cl.Reached(v) {
			t.Fatalf("%s: reached(%d): hybrid %v, classic %v", ctxt, v, hy.Reached(v), cl.Reached(v))
		}
		if !hy.Reached(v) {
			continue
		}
		if hy.DistOf(v) != cl.DistOf(v) {
			t.Fatalf("%s: dist(%d): hybrid %d, classic %d", ctxt, v, hy.DistOf(v), cl.DistOf(v))
		}
		if hy.SigmaOf(v) != cl.SigmaOf(v) {
			t.Fatalf("%s: σ(%d): hybrid %g, classic %g", ctxt, v, hy.SigmaOf(v), cl.SigmaOf(v))
		}
	}
}

// TestHybridClassicEquivalenceRandomized is the randomized acceptance
// property for the direction-optimizing kernel: over a spread of
// generated topologies — heavy-tailed and uniform, connected and not —
// a kernel forced into hybrid mode (bypassing the heavy-tail gate, so
// the bottom-up machinery runs even where production would not choose
// it) must agree bit-for-bit with the classic queue kernel on dist, σ,
// and the reached set. Each graph is then mutated through the overlay
// path and compacted, re-running the comparison on seated and
// Reseat-rebuilt kernels, so the equivalence covers every seating state
// a streaming session drives the kernel through. Nightly CI runs this
// un-shortened under -race.
func TestHybridClassicEquivalenceRandomized(t *testing.T) {
	r := rng.New(42)
	graphs := 25
	if testing.Short() {
		graphs = 8
	}
	for i := 0; i < graphs; i++ {
		var g *graph.Graph
		switch i % 5 {
		case 0:
			g = graph.BarabasiAlbert(60+r.Intn(200), 1+r.Intn(4), r)
		case 1:
			// Sparse G(n,p): often disconnected, exercising unreached
			// vertices in the bottom-up sweep's visited complement.
			g = graph.ErdosRenyiGNP(40+r.Intn(160), 0.02+0.05*r.Float64(), r)
		case 2:
			g = graph.RandomTree(50+r.Intn(150), r)
		case 3:
			g = graph.StarOfCliques(2+r.Intn(4), 3+r.Intn(5))
		case 4:
			g = graph.Grid(3+r.Intn(8), 3+r.Intn(8))
		}
		n := g.N()
		hy := newBFS(g, true)
		cl := newBFS(g, false)
		runBoth := func(stage string) {
			t.Helper()
			for s := 0; s < 3; s++ {
				src := r.Intn(n)
				hy.Run(src)
				cl.Run(src)
				assertKernelsAgree(t, hy, cl, n, fmt.Sprintf("graph %d %s src %d", i, stage, src))
			}
		}
		runBoth("base")

		// Overlay-seated: add a few random chords (and sometimes drop
		// one) without rebuilding the CSR, then reseat both kernels on
		// the overlay version.
		var edits []graph.Edit
		for len(edits) < 1+r.Intn(4) {
			u, v := r.Intn(n), r.Intn(n)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			dup := false
			for _, e := range edits {
				if (e.U == u && e.V == v) || (e.U == v && e.V == u) {
					dup = true
					break
				}
			}
			if !dup {
				edits = append(edits, graph.Edit{Op: graph.EditAdd, U: u, V: v})
			}
		}
		g2, _, err := graph.ApplyEditsOverlay(g, edits)
		if err != nil {
			t.Fatalf("graph %d: overlay: %v", i, err)
		}
		hy.Reseat(g2)
		cl.Reseat(g2)
		runBoth("overlay")

		// Post-Reseat across a storage change: compaction rebuilds both
		// kernels from scratch (fresh bitsets, fresh slot CSR).
		g3 := g2.Compact()
		hy.Reseat(g3)
		cl.Reseat(g3)
		runBoth("compacted")
	}
}

// diamondChain builds a chain of k diamond gadgets: s_{i-1} connects
// to two middle vertices which both connect to s_i, so σ(s_0 → s_k) =
// 2^k with every shortest path distinct.
func diamondChain(k int) *graph.Graph {
	b := graph.NewBuilder(3*k + 1)
	prev, id := 0, 1
	for i := 0; i < k; i++ {
		a, c, next := id, id+1, id+2
		id += 3
		b.AddEdge(prev, a)
		b.AddEdge(prev, c)
		b.AddEdge(a, next)
		b.AddEdge(c, next)
		prev = next
	}
	return b.MustBuild()
}

// TestBottomUpMaskDropsStaleSigma holds the bottom-up σ gather's mask
// to an AND. The graph joins a chain of 1,100 diamonds, where σ from
// the chain's end passes float64's range, and a BA-2000. A run from
// the chain's end leaves +Inf σ at chain slots; later runs from BA
// vertices sweep those never-reached slots bottom-up and must leave
// them unreached. A multiplied mask turns the stale +Inf into NaN, and
// a NaN sum reads as a parent found.
func TestBottomUpMaskDropsStaleSigma(t *testing.T) {
	chain := diamondChain(1100)
	ba := graph.BarabasiAlbert(2000, 3, rng.New(5))
	off := chain.N()
	bld := graph.NewBuilder(off + ba.N())
	chain.ForEachEdge(func(u, v int, _ float64) { bld.AddEdge(u, v) })
	ba.ForEachEdge(func(u, v int, _ float64) { bld.AddEdge(off+u, off+v) })
	g := bld.MustBuild()
	n := g.N()
	hy, cl := newBFS(g, true), NewBFSClassic(g)
	hy.Run(0)
	if !math.IsInf(hy.SigmaOf(off-1), 1) {
		t.Fatalf("σ at the chain's far end = %g, want +Inf", hy.SigmaOf(off-1))
	}
	for s := off; s < n; s += 97 {
		hy.Run(s)
		cl.Run(s)
		assertKernelsAgree(t, hy, cl, n, fmt.Sprintf("BA source %d", s))
	}
}

// TestAccumulateMaskDropsStaleCoeff holds the backward pass's
// successor mask to an AND. A pass from the end of a chain of 1,100
// diamonds leaves NaN and ±Inf terms in the kernel's scratch; a pass
// from the middle hub, where every σ is finite, reads those slots as
// non-successors before it rewrites them, and must give finite δ equal
// to a fresh kernel's bit for bit.
func TestAccumulateMaskDropsStaleCoeff(t *testing.T) {
	g := diamondChain(1100)
	n := g.N()
	mid := n / 2 // hub 550
	for _, hybrid := range []bool{true, false} {
		b := newBFS(g, hybrid)
		b.Run(0)
		b.Accumulate()
		stale := 0
		for v := 0; v < n; v++ {
			if d := b.DeltaOf(v); math.IsNaN(d) || math.IsInf(d, 0) {
				stale++
			}
		}
		if stale == 0 {
			t.Fatalf("hybrid=%v: every δ from the chain's end is finite", hybrid)
		}
		b.Run(mid)
		b.Accumulate()
		fresh := newBFS(g, hybrid)
		fresh.Run(mid)
		fresh.Accumulate()
		for v := 0; v < n; v++ {
			d, want := b.DeltaOf(v), fresh.DeltaOf(v)
			if math.IsNaN(d) || math.IsInf(d, 0) || math.Float64bits(d) != math.Float64bits(want) {
				t.Fatalf("hybrid=%v: δ(%d) = %v after the overflowing pass, fresh kernel %v", hybrid, v, d, want)
			}
		}
	}
}

// TestSigmaExactLimitDetected drives σ across 2^53 with a diamond-gadget
// chain and checks the sigmaCheck sweep catches it in both kernels,
// while the boundary case σ = 2^53 exactly (still exact by the
// SigmaExactLimit argument) passes clean.
func TestSigmaExactLimitDetected(t *testing.T) {
	sigmaCheck = true
	defer func() { sigmaCheck = false }()

	// 53 diamonds: σ = 2^53 at the chain's end — the last exact value.
	ok := diamondChain(53)
	for _, b := range []*BFS{newBFS(ok, true), newBFS(ok, false)} {
		b.Run(0)
		if got := b.SigmaOf(ok.N() - 1); got != SigmaExactLimit {
			t.Fatalf("σ at chain end = %g, want 2^53", got)
		}
	}

	// 54 diamonds: σ = 2^54 — representable (a power of two) but past
	// the point where *every* integer count is, so the invariant sweep
	// must refuse it.
	bad := diamondChain(54)
	for name, b := range map[string]*BFS{"hybrid": newBFS(bad, true), "classic": newBFS(bad, false)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic for σ = 2^54", name)
				}
			}()
			b.Run(0)
		}()
	}
}
