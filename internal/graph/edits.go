package graph

// Batched copy-on-write edge mutation. An edit batch is validated as
// a whole against an immutable graph and applied one version ahead,
// leaving the input untouched, so estimates that captured it keep
// running bit-identically while new traffic sees the new version
// (snapshot isolation; see internal/engine.SwapGraph).
//
// There is one merge: ApplyEditsOverlay (overlay.go) rebuilds the
// adjacency of each edited vertex by a two-pointer merge of its sorted
// list against its sorted additions and removals, and layers the
// results over the shared base CSR in O(batch + overlay). The serving
// path keeps that overlay and folds it into a flat CSR in the
// background (Compact). ApplyEdits is the same batch followed by
// Compact, for callers that want a clean CSR at once (WAL replay,
// tools).

import (
	"fmt"
	"sort"
)

// EditOp is the kind of one edge edit.
type EditOp uint8

const (
	// EditAdd inserts an edge that must not already exist.
	EditAdd EditOp = iota
	// EditRemove deletes an edge that must exist.
	EditRemove
)

// String returns the wire-format name of the op ("add"/"remove").
func (op EditOp) String() string {
	switch op {
	case EditAdd:
		return "add"
	case EditRemove:
		return "remove"
	default:
		return fmt.Sprintf("EditOp(%d)", int(op))
	}
}

// Edit is one edge mutation. W is the weight of an added edge on a
// weighted graph (0 means 1); it is ignored for removals and must be
// 0 or 1 on unweighted graphs — an edit never changes a graph's
// weightedness class, so caches keyed on it stay coherent.
type Edit struct {
	Op   EditOp
	U, V int
	W    float64
}

// EditReport describes an applied batch: how many edges went in and
// out, the endpoints whose adjacency changed (sorted, deduplicated),
// and the applied endpoint pairs (u < v). The pairs — not just the
// vertex set — seed the engine's cache-retention analysis
// (AffectedTracker): a removal's affected region is the block-cut-tree
// path *between* its endpoints, which the flat vertex set cannot
// express.
type EditReport struct {
	Added, Removed int
	Changed        []int
	Pairs          [][2]int
}

// Version returns the graph's monotonic mutation stamp: 0 for graphs
// built by a Builder (or any generator/reader on top of one), and one
// more than the input's for every applied edit batch. Versions order
// the snapshots of one mutation lineage; they carry no meaning across
// unrelated graphs.
func (g *Graph) Version() uint64 { return g.version }

// EditError is a batch rejection tied to one specific edge. It carries
// the endpoints as structured fields so serving layers that address
// edits by external labels (internal/store) can translate them back
// before showing the message to a client that never saw these ids.
type EditError struct {
	U, V   int
	Reason string
}

func (e *EditError) Error() string {
	return fmt.Sprintf("graph: edge (%d,%d): %s", e.U, e.V, e.Reason)
}

// halfEdit is one directed half of an edit, keyed for per-vertex
// grouping.
type halfEdit struct {
	from, to int
	w        float64
	add      bool
}

// editGroups is a validated, grouped edit batch, the input of
// ApplyEditsOverlay's per-vertex merges: halves sorted by (from, to)
// so each vertex's delta is one sorted run, pairs in input order
// (u < v), changed the sorted distinct endpoints, and the add/remove
// totals.
type editGroups struct {
	halves         []halfEdit
	pairs          [][2]int
	changed        []int
	added, removed int
}

// groupEdits validates an edit batch against g (endpoint range,
// self-loops, one-edit-per-pair, weight class) and groups it for the
// per-vertex merges. Edge-existence violations are not checked here —
// the merge detects them.
func groupEdits(g *Graph, edits []Edit) (*editGroups, error) {
	n := g.N()
	weighted := g.Weighted()
	halves := make([]halfEdit, 0, 2*len(edits))
	pairs := make([][2]int, 0, len(edits))
	added, removed := 0, 0
	for i, e := range edits {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edit %d: edge (%d,%d) out of range [0,%d)", i, e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, &EditError{U: e.U, V: e.V, Reason: "self-loop rejected"}
		}
		w := e.W
		switch e.Op {
		case EditAdd:
			if w == 0 {
				w = 1
			}
			if w < 0 {
				return nil, &EditError{U: e.U, V: e.V, Reason: fmt.Sprintf("negative weight %v", e.W)}
			}
			if !weighted && w != 1 {
				return nil, &EditError{U: e.U, V: e.V, Reason: fmt.Sprintf("weighted edge (w=%v) on an unweighted graph", e.W)}
			}
			added++
		case EditRemove:
			removed++
		default:
			return nil, fmt.Errorf("graph: edit %d: unknown op %d", i, int(e.Op))
		}
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		pairs = append(pairs, [2]int{u, v})
		halves = append(halves,
			halfEdit{from: u, to: v, w: w, add: e.Op == EditAdd},
			halfEdit{from: v, to: u, w: w, add: e.Op == EditAdd})
	}

	// One edit per pair: sort the normalized pairs and scan for
	// duplicates.
	sortedPairs := append([][2]int(nil), pairs...)
	sort.Slice(sortedPairs, func(i, j int) bool {
		if sortedPairs[i][0] != sortedPairs[j][0] {
			return sortedPairs[i][0] < sortedPairs[j][0]
		}
		return sortedPairs[i][1] < sortedPairs[j][1]
	})
	for i := 1; i < len(sortedPairs); i++ {
		if sortedPairs[i] == sortedPairs[i-1] {
			return nil, &EditError{U: sortedPairs[i][0], V: sortedPairs[i][1], Reason: "more than one edit for this edge"}
		}
	}

	// Group halves by (from, to) so each vertex's delta is a sorted run.
	sort.Slice(halves, func(i, j int) bool {
		if halves[i].from != halves[j].from {
			return halves[i].from < halves[j].from
		}
		return halves[i].to < halves[j].to
	})

	// Changed-vertex set: the distinct endpoints, from the sorted pairs.
	changed := make([]int, 0, 2*len(edits))
	for _, p := range sortedPairs {
		changed = append(changed, p[0], p[1])
	}
	sort.Ints(changed)
	uniq := changed[:0]
	for i, v := range changed {
		if i == 0 || v != changed[i-1] {
			uniq = append(uniq, v)
		}
	}

	return &editGroups{
		halves:  halves,
		pairs:   pairs,
		changed: uniq,
		added:   added,
		removed: removed,
	}, nil
}

// ApplyEdits applies a batch of edge edits to an undirected graph and
// returns the resulting graph as a fresh clean CSR (Version()+1) plus
// a report of what changed: ApplyEditsOverlay followed by Compact. The
// input graph is not modified.
//
// The batch is validated as a whole and applied atomically — any
// invalid edit rejects the entire batch with a nil graph:
//
//   - endpoints must be in range and distinct (the paper's graphs are
//     loop-free; self-loops are an error here, not silently dropped as
//     in the Builder, because an explicit edit asking for one is a
//     client bug);
//   - an added edge must not exist, a removed edge must exist
//     (parallel edges cannot be created, blind deletes are surfaced);
//   - at most one edit per vertex pair — "add and remove {u,v}" in one
//     batch is ambiguous and rejected;
//   - weights: on weighted graphs an add's W must be positive (0 means
//     1); on unweighted graphs W must be 0 or 1, keeping the graph
//     unweighted.
//
// Neither applier checks connectivity: removing a bridge yields a
// valid but disconnected graph, which estimation layers must reject
// themselves (internal/store does, per removed pair with
// PairConnected, before the batch is logged or served).
func ApplyEdits(g *Graph, edits []Edit) (*Graph, *EditReport, error) {
	next, rep, err := ApplyEditsOverlay(g, edits)
	if err != nil {
		return nil, nil, err
	}
	return next.Compact(), rep, nil
}
