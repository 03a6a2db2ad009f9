package graph

import (
	"testing"

	"bcmh/internal/rng"
)

// graphsEqual asserts g and h describe the same logical graph —
// vertex count, edge count, version, weightedness, and every adjacency
// list with weights — regardless of overlay vs clean storage.
func graphsEqual(t *testing.T, label string, g, h *Graph) {
	t.Helper()
	if g.N() != h.N() || g.M() != h.M() || g.Version() != h.Version() || g.Weighted() != h.Weighted() {
		t.Fatalf("%s: shape mismatch: n=%d/%d m=%d/%d v=%d/%d w=%v/%v",
			label, g.N(), h.N(), g.M(), h.M(), g.Version(), h.Version(), g.Weighted(), h.Weighted())
	}
	for v := 0; v < g.N(); v++ {
		a, b := g.Neighbors(v), h.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("%s: vertex %d: degree %d vs %d", label, v, len(a), len(b))
		}
		aw, bw := g.NeighborWeights(v), h.NeighborWeights(v)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: vertex %d slot %d: neighbor %d vs %d", label, v, i, a[i], b[i])
			}
			if aw != nil && aw[i] != bw[i] {
				t.Fatalf("%s: vertex %d slot %d: weight %v vs %v", label, v, i, aw[i], bw[i])
			}
		}
	}
}

// randomEditBatch builds a valid batch against g: removals of existing
// edges and additions of absent ones, at most one edit per pair.
func randomEditBatch(g *Graph, k int, r *rng.RNG) []Edit {
	n := g.N()
	seen := map[[2]int]bool{}
	var edits []Edit
	for len(edits) < k {
		u := int(r.Uint64n(uint64(n)))
		ns := g.Neighbors(u)
		if len(ns) > 1 && r.Uint64n(2) == 0 {
			v := ns[int(r.Uint64n(uint64(len(ns))))]
			// Keep endpoints with degree ≥ 2 so the graph has a chance
			// of staying connected (not required by the edit API, but
			// keeps the batches realistic).
			if g.Degree(v) <= 1 {
				continue
			}
			p := [2]int{min(u, v), max(u, v)}
			if seen[p] {
				continue
			}
			seen[p] = true
			edits = append(edits, Edit{Op: EditRemove, U: u, V: v})
			continue
		}
		v := int(r.Uint64n(uint64(n)))
		if v == u || g.HasEdge(u, v) {
			continue
		}
		p := [2]int{min(u, v), max(u, v)}
		if seen[p] {
			continue
		}
		seen[p] = true
		e := Edit{Op: EditAdd, U: u, V: v}
		if g.Weighted() {
			e.W = 1 + float64(r.Uint64n(9))
		}
		edits = append(edits, e)
	}
	return edits
}

// TestApplyEditsOverlayEquivalence pins the overlay path to the CSR
// path: over chained random batches on several topologies, the overlay
// graph, its Compact, and the ApplyEdits product must be identical at
// every step, and the reports must match.
func TestApplyEditsOverlayEquivalence(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
	}{
		{"karate", KarateClub()},
		{"grid", Grid(12, 9)},
		{"ba", BarabasiAlbert(300, 3, rng.New(7))},
		{"er", ErdosRenyiGNP(200, 0.05, rng.New(8))},
		{"weighted-ba", WithUniformWeights(BarabasiAlbert(200, 3, rng.New(9)), 1, 10, rng.New(10))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(42)
			csr, ovl := tc.g, tc.g
			for step := 0; step < 8; step++ {
				edits := randomEditBatch(ovl, 6, r)
				nextCSR, repCSR, err := ApplyEdits(csr, edits)
				if err != nil {
					t.Fatalf("step %d: ApplyEdits: %v", step, err)
				}
				nextOvl, repOvl, err := ApplyEditsOverlay(ovl, edits)
				if err != nil {
					t.Fatalf("step %d: ApplyEditsOverlay: %v", step, err)
				}
				if repCSR.Added != repOvl.Added || repCSR.Removed != repOvl.Removed ||
					len(repCSR.Changed) != len(repOvl.Changed) || len(repCSR.Pairs) != len(repOvl.Pairs) {
					t.Fatalf("step %d: report mismatch: %+v vs %+v", step, repCSR, repOvl)
				}
				if !nextOvl.HasOverlay() {
					t.Fatalf("step %d: overlay product has no overlay", step)
				}
				if !SameStorage(ovl, nextOvl) {
					t.Fatalf("step %d: overlay product does not share storage", step)
				}
				if SameStorage(nextCSR, nextOvl) {
					t.Fatalf("step %d: CSR product claims shared storage", step)
				}
				graphsEqual(t, "overlay vs csr", nextOvl, nextCSR)
				compacted := nextOvl.Compact()
				if compacted.HasOverlay() || SameStorage(compacted, nextOvl) {
					t.Fatalf("step %d: Compact left overlay or shared storage", step)
				}
				graphsEqual(t, "compact vs csr", compacted, nextCSR)
				// The old snapshot must be untouched by the new batch.
				graphsEqual(t, "old snapshot", ovl, csr)
				csr, ovl = nextCSR, nextOvl
			}
		})
	}
}

// TestApplyEditsOverlayErrors pins error parity with ApplyEdits for
// every rejection class.
func TestApplyEditsOverlayErrors(t *testing.T) {
	g := KarateClub()
	bad := [][]Edit{
		{{Op: EditAdd, U: 0, V: 99}},                                // out of range
		{{Op: EditAdd, U: 3, V: 3}},                                 // self-loop
		{{Op: EditAdd, U: 0, V: 1}},                                 // exists
		{{Op: EditRemove, U: 0, V: 15}},                             // missing
		{{Op: EditAdd, U: 0, V: 15}, {Op: EditRemove, U: 15, V: 0}}, // dup pair
		{{Op: EditAdd, U: 0, V: 15, W: 2}},                          // weight on unweighted
		{{Op: EditAdd, U: 0, V: 15, W: -1}},                         // negative weight
		{},                                                          // empty batch
	}
	for i, edits := range bad {
		_, _, errCSR := ApplyEdits(g, edits)
		gOvl, _, errOvl := ApplyEditsOverlay(g, edits)
		if errCSR == nil || errOvl == nil {
			t.Fatalf("case %d: expected errors, got %v / %v", i, errCSR, errOvl)
		}
		if errCSR.Error() != errOvl.Error() {
			t.Fatalf("case %d: error mismatch: %q vs %q", i, errCSR, errOvl)
		}
		if gOvl != nil {
			t.Fatalf("case %d: non-nil graph on error", i)
		}
	}
}

// TestOverlayCompactionTrigger pins the two halves of the threshold.
func TestOverlayCompactionTrigger(t *testing.T) {
	g := Grid(10, 10)
	if g.ShouldCompactOverlay(1) {
		t.Fatal("clean graph wants compaction")
	}
	h, _, err := ApplyEditsOverlay(g, []Edit{{Op: EditAdd, U: 0, V: 99}})
	if err != nil {
		t.Fatal(err)
	}
	if h.OverlayEdits() != 1 || h.OverlayTouched() != 2 {
		t.Fatalf("edits=%d touched=%d", h.OverlayEdits(), h.OverlayTouched())
	}
	if h.ShouldCompactOverlay(2) {
		t.Fatal("compaction wanted below both thresholds")
	}
	if !h.ShouldCompactOverlay(1) {
		t.Fatal("edit-count threshold not honored")
	}
	// Touch >n/8 vertices: 13 distinct pairs = 26 endpoints > 12.
	var edits []Edit
	for i := 0; i < 13; i++ {
		edits = append(edits, Edit{Op: EditAdd, U: i, V: 99 - i - 10})
	}
	h2, _, err := ApplyEditsOverlay(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	if !h2.ShouldCompactOverlay(1 << 20) {
		t.Fatal("touched-fraction threshold not honored")
	}
}

// TestPairConnected covers the bidirectional reachability check used
// by the streaming removal guard.
func TestPairConnected(t *testing.T) {
	g := KarateClub()
	if !PairConnected(g, 0, 33) {
		t.Fatal("karate is connected")
	}
	// Vertex 11's only edge is {0,11}: removing it isolates 11.
	h, _, err := ApplyEditsOverlay(g, []Edit{{Op: EditRemove, U: 0, V: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if PairConnected(h, 0, 11) {
		t.Fatal("11 should be cut off")
	}
	if !PairConnected(h, 0, 33) {
		t.Fatal("rest of the club should stay connected")
	}
	if !PairConnected(h, 5, 5) {
		t.Fatal("self-reachability")
	}
}

// OverlayTouched returns the number of vertices whose adjacency is
// replaced by the overlay (0 for clean graphs).
func (g *Graph) OverlayTouched() int {
	if g.ov == nil {
		return 0
	}
	return len(g.ov.touched)
}
