package graph

// Delta-overlay mutation: ApplyEditsOverlay absorbs an edit batch in
// O(batch + overlay) instead of an O(n+m) CSR copy. The product is a
// Graph that *shares* the base CSR arrays with its input and carries a
// small overlay — a sorted set of vertices whose adjacency lists are
// replaced wholesale. Accessors (Neighbors, Degree, Weight,
// ForEachEdge, ...) consult the overlay transparently, so every
// algorithm written against the Graph API — connectivity, block-cut
// trees, the SSSP kernels' constructors — is overlay-correct without
// change; clean graphs pay one predicted-not-taken nil check.
//
// Overlays are immutable like graphs: each ApplyEditsOverlay builds a
// new overlay sharing the untouched replacement lists of its input
// (copy-on-write), so older versions keep serving bit-identical reads.
// Compact folds the overlay back into a fresh CSR at the *same*
// version — the logical graph is unchanged, only its storage — which
// is what the serving layer installs in the background once the
// overlay passes a size/fraction threshold (ShouldCompactOverlay), and
// what ApplyEdits returns for callers that want a clean CSR at once.

import (
	"fmt"
	"sort"
)

// overlay is the per-vertex replacement set layered over a base CSR.
// touched is sorted; lists[i] is the full sorted adjacency of
// touched[i], replacing the base list. wlists is parallel to lists for
// weighted graphs, nil otherwise. edits counts the edit operations
// absorbed since the last clean CSR (compaction trigger input).
type overlay struct {
	touched []int
	lists   [][]int
	wlists  [][]float64
	edits   int
}

// find returns the index of v in touched, or -1.
func (ov *overlay) find(v int) int {
	i := sort.SearchInts(ov.touched, v)
	if i < len(ov.touched) && ov.touched[i] == v {
		return i
	}
	return -1
}

// HasOverlay reports whether g carries a delta overlay over its base
// CSR (i.e. it was produced by ApplyEditsOverlay and not yet
// compacted).
func (g *Graph) HasOverlay() bool { return g.ov != nil }

// OverlayEdits returns the number of edit operations absorbed into the
// overlay since the last clean CSR (0 for clean graphs). It only ever
// grows along an overlay lineage, so it is a monotone compaction
// trigger.
func (g *Graph) OverlayEdits() int {
	if g.ov == nil {
		return 0
	}
	return g.ov.edits
}

// ShouldCompactOverlay reports whether the overlay has grown past the
// point where folding it into a fresh CSR pays for itself: more than
// maxEdits absorbed operations, or replacement lists on more than
// 1/8th of the vertices (past that, the binary search in every
// accessor starts to bite). Clean graphs never want compaction.
func (g *Graph) ShouldCompactOverlay(maxEdits int) bool {
	if g.ov == nil {
		return false
	}
	return g.ov.edits >= maxEdits || len(g.ov.touched)*8 > g.N()
}

// BaseNeighbors returns the pre-overlay adjacency of v: the base CSR
// run, ignoring any overlay replacement. Kernel builders use it to
// lay out the shared clean arena once and patch overlay vertices on
// top (sssp.BFS.Reseat).
func (g *Graph) BaseNeighbors(v int) []int {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// BaseNeighborWeights returns the pre-overlay edge weights parallel to
// BaseNeighbors(v), nil for unweighted graphs.
func (g *Graph) BaseNeighborWeights(v int) []float64 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.offsets[v]:g.offsets[v+1]]
}

// ForEachOverlay calls fn once per overlay-replaced vertex in
// ascending order, with its full replacement adjacency and (for
// weighted graphs) parallel weights. No-op on clean graphs. The slices
// are shared; callers must not modify them.
func (g *Graph) ForEachOverlay(fn func(v int, adj []int, w []float64)) {
	if g.ov == nil {
		return
	}
	for i, v := range g.ov.touched {
		var w []float64
		if g.ov.wlists != nil {
			w = g.ov.wlists[i]
		}
		fn(v, g.ov.lists[i], w)
	}
}

// SameStorage reports whether a and b share the same base CSR arrays —
// i.e. one was derived from the other by overlay-only steps
// (ApplyEditsOverlay), with no compaction in between. The serving
// layer uses this to accept only overlay descendants of the graph it
// serves (buffer pools and kernels reseat in place across them).
func SameStorage(a, b *Graph) bool {
	return a != nil && b != nil &&
		len(a.offsets) == len(b.offsets) && &a.offsets[0] == &b.offsets[0]
}

// ApplyEditsOverlay applies a batch of edge edits to an undirected
// graph and returns the resulting graph at Version()+1, sharing the
// input's base CSR arrays and absorbing the batch into a (copy-on-
// write) delta overlay in O(batch + overlay) time. The input graph is
// not modified and keeps serving reads bit-identically.
//
// Validation rules are listed on ApplyEdits, which is this function
// followed by Compact.
func ApplyEditsOverlay(g *Graph, edits []Edit) (*Graph, *EditReport, error) {
	if g == nil {
		return nil, nil, fmt.Errorf("graph: ApplyEditsOverlay on nil graph")
	}
	if g.directed {
		return nil, nil, fmt.Errorf("graph: ApplyEditsOverlay supports undirected graphs only")
	}
	if len(edits) == 0 {
		return nil, nil, fmt.Errorf("graph: empty edit batch")
	}
	gr, err := groupEdits(g, edits)
	if err != nil {
		return nil, nil, err
	}
	weighted := g.Weighted()

	// Build the replacement adjacency for each changed vertex: the
	// current list (base or previous overlay) two-pointer-merged with
	// its sorted delta run.
	newLists := make([][]int, len(gr.changed))
	var newWLists [][]float64
	if weighted {
		newWLists = make([][]float64, len(gr.changed))
	}
	hi := 0 // cursor into gr.halves, sorted by (from, to)
	for ci, v := range gr.changed {
		old := g.Neighbors(v)
		var oldW []float64
		if weighted {
			oldW = g.NeighborWeights(v)
		}
		for hi < len(gr.halves) && gr.halves[hi].from < v {
			hi++ // cannot happen: every halves.from is a changed vertex
		}
		lst := make([]int, 0, len(old)+2)
		var lw []float64
		if weighted {
			lw = make([]float64, 0, len(old)+2)
		}
		oi := 0
		for hi < len(gr.halves) && gr.halves[hi].from == v {
			h := gr.halves[hi]
			for oi < len(old) && old[oi] < h.to {
				lst = append(lst, old[oi])
				if weighted {
					lw = append(lw, oldW[oi])
				}
				oi++
			}
			exists := oi < len(old) && old[oi] == h.to
			if h.add {
				if exists {
					return nil, nil, &EditError{U: v, V: h.to, Reason: "cannot add: edge already exists"}
				}
				lst = append(lst, h.to)
				if weighted {
					lw = append(lw, h.w)
				}
			} else {
				if !exists {
					return nil, nil, &EditError{U: v, V: h.to, Reason: "cannot remove: no such edge"}
				}
				oi++ // skip the removed neighbor
			}
			hi++
		}
		lst = append(lst, old[oi:]...)
		if weighted {
			lw = append(lw, oldW[oi:]...)
		}
		newLists[ci] = lst
		if weighted {
			newWLists[ci] = lw
		}
	}

	// Merge the replacement set into the previous overlay (sorted-set
	// union, sharing untouched lists with the input's overlay).
	prev := g.ov
	var prevN, prevEdits int
	if prev != nil {
		prevN = len(prev.touched)
		prevEdits = prev.edits
	}
	out := &overlay{
		touched: make([]int, 0, prevN+len(gr.changed)),
		lists:   make([][]int, 0, prevN+len(gr.changed)),
		edits:   prevEdits + len(edits),
	}
	if weighted {
		out.wlists = make([][]float64, 0, prevN+len(gr.changed))
	}
	pi, ci := 0, 0
	for pi < prevN || ci < len(gr.changed) {
		switch {
		case ci >= len(gr.changed) || (pi < prevN && prev.touched[pi] < gr.changed[ci]):
			out.touched = append(out.touched, prev.touched[pi])
			out.lists = append(out.lists, prev.lists[pi])
			if weighted {
				out.wlists = append(out.wlists, prev.wlists[pi])
			}
			pi++
		default:
			if pi < prevN && prev.touched[pi] == gr.changed[ci] {
				pi++ // replaced by this batch's list
			}
			out.touched = append(out.touched, gr.changed[ci])
			out.lists = append(out.lists, newLists[ci])
			if weighted {
				out.wlists = append(out.wlists, newWLists[ci])
			}
			ci++
		}
	}

	next := &Graph{
		offsets: g.offsets,
		adj:     g.adj,
		weights: g.weights,
		m:       g.m + gr.added - gr.removed,
		version: g.version + 1,
		ov:      out,
	}
	next.inheritOrdering(g)
	return next, &EditReport{
		Added:   gr.added,
		Removed: gr.removed,
		Changed: gr.changed,
		Pairs:   gr.pairs,
	}, nil
}

// Compact folds the overlay into a fresh clean CSR at the same version
// — the logical graph (vertices, edges, weights, Version) is
// unchanged, only its storage. Clean graphs are returned as-is.
// Adjacency order is preserved, so traversals over the compacted graph
// are bit-identical to traversals over the overlay form.
//
// One pass walks the sorted overlay in lockstep with the vertex range:
// each run of untouched vertices is one bulk copy of its base CSR
// slice (offsets shifted by a constant), each touched vertex one copy
// of its replacement list — no per-vertex overlay lookup.
func (g *Graph) Compact() *Graph {
	ov := g.ov
	if ov == nil {
		return g
	}
	n := g.N()
	sz := len(g.adj)
	for i, v := range ov.touched {
		sz += len(ov.lists[i]) - (g.offsets[v+1] - g.offsets[v])
	}
	offsets := make([]int, n+1)
	adj := make([]int, 0, sz)
	var weights []float64
	if g.weights != nil {
		weights = make([]float64, 0, sz)
	}
	lo := 0 // first vertex not yet emitted
	for i := 0; ; i++ {
		hi := n
		if i < len(ov.touched) {
			hi = ov.touched[i]
		}
		shift := len(adj) - g.offsets[lo]
		for v := lo; v < hi; v++ {
			offsets[v] = g.offsets[v] + shift
		}
		adj = append(adj, g.adj[g.offsets[lo]:g.offsets[hi]]...)
		if weights != nil {
			weights = append(weights, g.weights[g.offsets[lo]:g.offsets[hi]]...)
		}
		if hi == n {
			break
		}
		offsets[hi] = len(adj)
		adj = append(adj, ov.lists[i]...)
		if weights != nil {
			weights = append(weights, ov.wlists[i]...)
		}
		lo = hi + 1
	}
	offsets[n] = len(adj)
	c := &Graph{
		offsets:  offsets,
		adj:      adj,
		weights:  weights,
		m:        g.m,
		directed: g.directed,
		version:  g.version,
	}
	c.inheritOrdering(g)
	return c
}

// RebaseCompacted re-anchors cur onto c's fresh CSR storage, where c
// is from.Compact() and cur descends from `from` by overlay-only steps
// (a background compaction that finished after the stream advanced the
// lineage past its input). The result is logically identical to cur —
// same adjacency, M, Version — with c's arrays as base and only the
// still-unfolded overlay entries kept, so subsequent ApplyEditsOverlay
// calls chain off the compacted storage. Costs O(overlay), never
// O(n+m).
//
// Why it is sound: overlay lists are full per-vertex replacements, so
// they are valid over any base whose untouched rows agree. Overlay
// lineages only ever grow their touched set, hence cur's untouched
// vertices were untouched in `from` too, and c (the compaction of
// `from`) stores exactly their current adjacency. Entries whose list
// already equals c's row (folded by the compaction) are dropped.
//
// The second return is false — and the first nil — when the inputs do
// not form that shape: cur not storage-shared with from (another
// compaction was installed meanwhile), c not a clean compaction of from's version, or a
// version regression.
func RebaseCompacted(c, from, cur *Graph) (*Graph, bool) {
	if c == nil || from == nil || cur == nil ||
		!SameStorage(from, cur) || c.ov != nil ||
		c.version != from.version || cur.version < from.version ||
		c.N() != cur.N() {
		return nil, false
	}
	if cur.ov == nil {
		// cur == from logically (no overlay steps since): c is already
		// its compacted form.
		return c, true
	}
	out := &overlay{}
	for i, v := range cur.ov.touched {
		list := cur.ov.lists[i]
		base := c.adj[c.offsets[v]:c.offsets[v+1]]
		if intsEqual(list, base) {
			var wl []float64
			if cur.ov.wlists != nil {
				wl = cur.ov.wlists[i]
			}
			if wl == nil || floatsEqual(wl, c.weights[c.offsets[v]:c.offsets[v+1]]) {
				continue // folded into c already
			}
		}
		out.touched = append(out.touched, v)
		out.lists = append(out.lists, list)
		if cur.ov.wlists != nil {
			out.wlists = append(out.wlists, cur.ov.wlists[i])
		}
	}
	g := &Graph{
		offsets:  c.offsets,
		adj:      c.adj,
		weights:  c.weights,
		m:        cur.m,
		directed: cur.directed,
		version:  cur.version,
	}
	g.inheritOrdering(cur)
	if len(out.touched) > 0 {
		// The exact split of cur's edit count between folded and
		// surviving entries is lost; one edit per surviving entry is a
		// sound lower bound and keeps ShouldCompactOverlay's
		// touched-fraction trigger (which dominates for small residues)
		// exact.
		out.edits = len(out.touched)
		g.ov = out
	}
	return g, true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PairConnected reports whether u and v are in the same connected
// component of g, by bidirectional BFS (expanding the smaller frontier
// first, so the typical cost after removing one edge of a well-
// connected graph is far below O(n+m)). It allocates its own scratch;
// u == v is trivially connected.
func PairConnected(g *Graph, u, v int) bool {
	if u == v {
		return true
	}
	n := g.N()
	if u < 0 || u >= n || v < 0 || v >= n {
		return false
	}
	// side: 0 unvisited, 1 reached from u, 2 reached from v.
	side := make([]uint8, n)
	side[u], side[v] = 1, 2
	qu, qv := []int{u}, []int{v}
	for len(qu) > 0 && len(qv) > 0 {
		// Expand the smaller frontier one full level.
		q, mine, theirs := qu, uint8(1), uint8(2)
		if len(qv) < len(qu) {
			q, mine, theirs = qv, 2, 1
		}
		next := q[:0:0]
		for _, x := range q {
			for _, y := range g.Neighbors(x) {
				switch side[y] {
				case theirs:
					return true
				case 0:
					side[y] = mine
					next = append(next, y)
				}
			}
		}
		if mine == 1 {
			qu = next
		} else {
			qv = next
		}
	}
	return false
}
