package graph

// Biconnected-component (block) analysis, the soundness machinery
// behind the engine's μ-cache retention across graph mutations.
//
// The rule rests on the classical block factorization of shortest
// paths (the observation behind incremental-betweenness algorithms
// such as iCENTRAL): every s–t path crosses the same ordered sequence
// of blocks and cut vertices of the block-cut tree, so the shortest
// s–t path count factors into per-block counts between fixed
// entry/exit cut vertices, and for any vertex r the pair-dependency
// ratio σ_st(r)/σ_st equals the within-block ratio at r's own block.
// An edge edit confined to other blocks multiplies numerator and
// denominator by the same factor and changes neither the ratio nor
// which pairs route through r's block. Hence the whole dependency
// column δ_·•(r) — and with it μ(r), BC(r), and every other MuStats
// field — is exactly unchanged for every vertex r outside the edit's
// affected region.
//
// The affected region of an edit {u,v} is, on the *post-edit* graph,
// the union of the blocks on the block-cut-tree path from u to v: for
// an insertion u and v share a block (the path is that single block,
// which is exactly the union of the pre-edit blocks the insertion
// merged); for a removal the pre-edit block containing {u,v} may have
// split, and every fragment lies on some simple u–v path, i.e. on the
// u–v tree path. Either way the union over the batch's pairs is a
// sound overapproximation of the vertices whose betweenness structure
// can have changed.

// BlockForest is the block-cut decomposition of a graph: its blocks
// (biconnected components, as vertex lists), which vertices are cut
// vertices, and the block-cut tree connecting them. Build it with
// Blocks.
type BlockForest struct {
	// Blocks lists each biconnected component's vertices. A bridge is a
	// 2-vertex block. An isolated vertex forms no block.
	Blocks [][]int
	// IsCut marks articulation vertices (members of ≥ 2 blocks).
	IsCut []bool
	// blockOf maps a non-cut vertex to its unique block id (-1 for cut
	// vertices, which belong to several, and isolated vertices).
	blockOf []int
	// Tree adjacency over node ids: block b is node b; cut vertex v is
	// node len(Blocks)+cutIndex[v].
	tree     [][]int
	cutIndex []int
}

// Blocks computes the biconnected components of g (treated as
// undirected) with an iterative Hopcroft–Tarjan DFS, and assembles the
// block-cut tree. O(n + m).
func Blocks(g *Graph) *BlockForest {
	n := g.N()
	disc := make([]int32, n) // 0 = unvisited, else 1-based discovery time
	low := make([]int32, n)
	var timer int32

	type frame struct {
		v, parent int
		idx       int // next neighbor index to inspect
	}
	var stack []frame
	var edgeStack [][2]int
	var blocks [][]int

	// popBlock pops edges down to and including {v,w} and collects the
	// distinct vertices of the block they form.
	seen := make([]int, n) // block-id stamp, 1-based (0 = never)
	blockStamp := 0
	popBlock := func(v, w int) {
		blockStamp++
		var verts []int
		for len(edgeStack) > 0 {
			e := edgeStack[len(edgeStack)-1]
			edgeStack = edgeStack[:len(edgeStack)-1]
			for _, x := range []int{e[0], e[1]} {
				if seen[x] != blockStamp {
					seen[x] = blockStamp
					verts = append(verts, x)
				}
			}
			if e[0] == v && e[1] == w {
				break
			}
		}
		if len(verts) > 0 {
			blocks = append(blocks, verts)
		}
	}

	for root := 0; root < n; root++ {
		if disc[root] != 0 {
			continue
		}
		timer++
		disc[root], low[root] = timer, timer
		stack = append(stack[:0], frame{v: root, parent: -1})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			v := f.v
			ns := g.Neighbors(v)
			if f.idx < len(ns) {
				w := ns[f.idx]
				f.idx++
				if w == f.parent {
					continue // the single tree edge back (simple graph)
				}
				if disc[w] == 0 {
					edgeStack = append(edgeStack, [2]int{v, w})
					timer++
					disc[w], low[w] = timer, timer
					stack = append(stack, frame{v: w, parent: v})
				} else if disc[w] < disc[v] {
					// Back edge, recorded once (from the deeper side).
					edgeStack = append(edgeStack, [2]int{v, w})
					if disc[w] < low[v] {
						low[v] = disc[w]
					}
				}
				continue
			}
			// v's neighbors exhausted: retreat to parent.
			stack = stack[:len(stack)-1]
			if f.parent >= 0 {
				if low[v] < low[f.parent] {
					low[f.parent] = low[v]
				}
				if low[v] >= disc[f.parent] {
					// The edges above {parent, v} form a block.
					popBlock(f.parent, v)
				}
			}
		}
	}

	bf := &BlockForest{
		Blocks:   blocks,
		IsCut:    make([]bool, n),
		blockOf:  make([]int, n),
		cutIndex: make([]int, n),
	}
	memberships := make([]int, n)
	for i := range bf.blockOf {
		bf.blockOf[i] = -1
		bf.cutIndex[i] = -1
	}
	for b, verts := range blocks {
		for _, v := range verts {
			memberships[v]++
			bf.blockOf[v] = b
		}
	}
	cuts := 0
	for v := 0; v < n; v++ {
		if memberships[v] >= 2 {
			bf.IsCut[v] = true
			bf.blockOf[v] = -1
			bf.cutIndex[v] = cuts
			cuts++
		}
	}
	bf.tree = make([][]int, len(blocks)+cuts)
	for b, verts := range blocks {
		for _, v := range verts {
			if bf.IsCut[v] {
				c := len(blocks) + bf.cutIndex[v]
				bf.tree[b] = append(bf.tree[b], c)
				bf.tree[c] = append(bf.tree[c], b)
			}
		}
	}
	return bf
}

// nodeOf returns v's block-cut-tree node id: its cut node if v is a
// cut vertex, its unique block node otherwise (-1 for isolated
// vertices, which are in no block).
func (bf *BlockForest) nodeOf(v int) int {
	if bf.IsCut[v] {
		return len(bf.Blocks) + bf.cutIndex[v]
	}
	return bf.blockOf[v]
}

// markPath BFSes the block-cut tree from u's node to v's node and sets
// affected[x] for every vertex x of every block node on the path. The
// scratch slices (len(tree), reused across calls) carry BFS parents.
func (bf *BlockForest) markPath(u, v int, affected []bool, parent []int) {
	src, dst := bf.nodeOf(u), bf.nodeOf(v)
	if src < 0 || dst < 0 {
		return // isolated endpoint: no blocks to mark
	}
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[src] = -1
	queue := []int{src}
	for head := 0; head < len(queue) && parent[dst] == -2; head++ {
		x := queue[head]
		for _, y := range bf.tree[x] {
			if parent[y] == -2 {
				parent[y] = x
				queue = append(queue, y)
			}
		}
	}
	if parent[dst] == -2 {
		return // different components (caller rejects those batches anyway)
	}
	for x := dst; x != -1; x = parent[x] {
		if x < len(bf.Blocks) {
			for _, w := range bf.Blocks[x] {
				affected[w] = true
			}
		}
	}
}

// AffectedTracker answers, for each batch in a stream of edit batches,
// the affected region described at the top of this file, which
// version-tagged caches use to decide which entries to keep. Instead
// of an O(n+m) block decomposition per batch, it keeps
// the forest of an earlier version plus the cumulative dirty set (the
// union of every affected set reported since that forest was built) and
// answers from them in O(batch · tree-path + dirty).
//
// Soundness rests on two facts about block-cut trees under edits whose
// affected regions lie inside dirty:
//
//  1. An edit only restructures tree nodes inside its own affected
//     region — additions contract the endpoint path's blocks, removals
//     split the endpoints' block — so a u–v tree path that avoids dirty
//     entirely is the exact current path (contractions and splits of
//     nodes off a tree path leave the unique path untouched, in both
//     directions of the edit).
//  2. When the stale path does intersect dirty, the current path is
//     still confined to stalePath ∪ dirty: per edit, the post path is
//     the pre path with segments replaced inside the edit's affected
//     region (which dirty contains), so deviations accumulate only
//     inside dirty.
//
// Hence: stale-path marks alone when they avoid dirty, stale-path ∪
// dirty otherwise — always a sound overapproximation of the exact
// region. The forest is rebuilt (and dirty cleared) once the
// dirty set covers enough of the graph that the fallback stops being
// informative. Not safe for concurrent use; the serving layer calls it
// under its swap lock.
type AffectedTracker struct {
	bf     *BlockForest
	parent []int
	dirty  []bool
	nDirty int
	// sinceRebuild counts Affected calls since the forest was last
	// (re)built; rebuilds wait for trackerRebuildEvery of them so their
	// O(n+m) cost amortizes. On graphs that are essentially one
	// biconnected block (where every edit dirties everything and a fresh
	// forest would answer "everything" anyway) this is what keeps the
	// tracker O(batch) per call instead of O(n+m).
	sinceRebuild int
}

// trackerRebuildEvery is the minimum number of Affected calls between
// two forest rebuilds: a rebuild may fire at most every K-th batch, so
// its O(n+m) cost adds O((n+m)/K) per batch.
const trackerRebuildEvery = 64

// NewAffectedTracker builds a tracker seeded with g's block forest.
func NewAffectedTracker(g *Graph) *AffectedTracker {
	bf := Blocks(g)
	return &AffectedTracker{
		bf:     bf,
		parent: make([]int, len(bf.tree)),
		dirty:  make([]bool, g.N()),
	}
}

// Affected returns the affected vertex set of an edit batch with the
// given endpoint pairs, g being the post-batch graph: a sound (possibly
// coarser) overapproximation of the union, over the pairs, of the
// blocks on the block-cut-tree path between the pair's endpoints. Nil
// or empty pairs mark everything (nothing can be proven about an
// unknown edit).
func (t *AffectedTracker) Affected(g *Graph, pairs [][2]int) []bool {
	n := len(t.dirty)
	affected := make([]bool, n)
	if len(pairs) == 0 {
		for i := range affected {
			affected[i] = true
			t.dirty[i] = true
		}
		t.nDirty = n
		return affected
	}
	t.sinceRebuild++
	if t.nDirty*4 > n && t.sinceRebuild >= trackerRebuildEvery {
		// The fallback union would mark over a quarter of the graph:
		// re-anchor on the current version and start a clean ledger. The
		// interval gate amortizes the O(n+m) rebuild; answers from the
		// stale forest stay sound in the meantime (see above).
		t.bf = Blocks(g)
		if len(t.parent) < len(t.bf.tree) {
			t.parent = make([]int, len(t.bf.tree))
		}
		clear(t.dirty)
		t.nDirty = 0
		t.sinceRebuild = 0
	}
	for _, p := range pairs {
		t.bf.markPath(p[0], p[1], affected, t.parent[:len(t.bf.tree)])
	}
	hitDirty := false
	for v := 0; v < n && !hitDirty; v++ {
		hitDirty = affected[v] && t.dirty[v]
	}
	if hitDirty {
		for v, d := range t.dirty {
			if d {
				affected[v] = true
			}
		}
	}
	for v, a := range affected {
		if a && !t.dirty[v] {
			t.dirty[v] = true
			t.nDirty++
		}
	}
	return affected
}
