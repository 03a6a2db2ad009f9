package graph

import (
	"testing"

	"bcmh/internal/rng"
)

// AffectedByEdits returns the exact affected region of an edit batch
// with the given endpoint pairs (as a dense bool slice), evaluated on
// the *post-edit* graph g: the union, over the pairs, of the blocks on
// the block-cut-tree path between the pair's endpoints. Vertices
// outside it provably keep their exact dependency column δ_·•(r) (the
// soundness argument is at the top of blocks.go). A nil or empty pair
// list marks every vertex affected. It is the reference the tracker
// is held to.
func AffectedByEdits(g *Graph, pairs [][2]int) []bool {
	n := g.N()
	affected := make([]bool, n)
	if len(pairs) == 0 {
		for i := range affected {
			affected[i] = true
		}
		return affected
	}
	bf := Blocks(g)
	parent := make([]int, len(bf.tree))
	for _, p := range pairs {
		bf.markPath(p[0], p[1], affected, parent)
	}
	return affected
}

// TestAffectedTrackerSound chains random overlay batches and checks the
// tracker's answer is always a superset of the exact AffectedByEdits
// set (the tracker is allowed to be coarser, never finer), across
// forest staleness, the dirty-union fallback, and rebuilds.
func TestAffectedTrackerSound(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
	}{
		{"ba", BarabasiAlbert(250, 3, rng.New(31))},
		{"grid", Grid(14, 11)},
		{"er", ErdosRenyiGNP(180, 0.04, rng.New(32))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(9)
			g := tc.g
			tr := NewAffectedTracker(g)
			for step := 0; step < 20; step++ {
				edits := randomEditBatch(g, 4, r)
				next, rep, err := ApplyEditsOverlay(g, edits)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				got := tr.Affected(next, rep.Pairs)
				exact := AffectedByEdits(next, rep.Pairs)
				for v := range exact {
					if exact[v] && !got[v] {
						t.Fatalf("step %d: vertex %d affected but not reported", step, v)
					}
				}
				g = next
			}
			// Empty pairs mark everything, matching AffectedByEdits.
			all := tr.Affected(g, nil)
			for v, a := range all {
				if !a {
					t.Fatalf("nil pairs should mark vertex %d", v)
				}
			}
		})
	}
}

// TestRebaseCompacted pins the catch-up path of background compaction:
// a compaction of an old version re-anchors a later overlay graph onto
// the fresh storage without changing the logical graph.
func TestRebaseCompacted(t *testing.T) {
	r := rng.New(77)
	base := BarabasiAlbert(200, 3, rng.New(76))
	g := base
	for i := 0; i < 3; i++ {
		next, _, err := ApplyEditsOverlay(g, randomEditBatch(g, 5, r))
		if err != nil {
			t.Fatal(err)
		}
		g = next
	}
	from := g
	c := from.Compact()
	// The lineage advances while the compaction "runs".
	for i := 0; i < 3; i++ {
		next, _, err := ApplyEditsOverlay(g, randomEditBatch(g, 5, r))
		if err != nil {
			t.Fatal(err)
		}
		g = next
	}
	rebased, ok := RebaseCompacted(c, from, g)
	if !ok {
		t.Fatal("rebase refused a valid lineage")
	}
	graphsEqual(t, "rebased vs cur", rebased, g)
	if !SameStorage(rebased, c) {
		t.Fatal("rebased graph should sit on the compacted storage")
	}
	if SameStorage(rebased, g) {
		t.Fatal("rebased graph should have left the old storage")
	}
	// Later batches chain off the new storage.
	next, _, err := ApplyEditsOverlay(rebased, randomEditBatch(rebased, 4, r))
	if err != nil {
		t.Fatal(err)
	}
	if !SameStorage(next, rebased) {
		t.Fatal("post-rebase batch should share the compacted storage")
	}

	// No-advance case: every overlay entry folds away.
	c2 := from.Compact()
	same, ok := RebaseCompacted(c2, from, from)
	if !ok || same.HasOverlay() || !SameStorage(same, c2) {
		t.Fatal("no-advance rebase should fold to the compacted storage")
	}
	graphsEqual(t, "no-advance rebase", same, from)

	// Lineage breaks are refused.
	if _, ok := RebaseCompacted(c, from, base.Compact()); ok {
		t.Fatal("rebase across a storage change should be refused")
	}
	if _, ok := RebaseCompacted(from, from, g); ok {
		t.Fatal("an uncompacted c should be refused")
	}
}
