package sssp

import (
	"math"
	"math/bits"

	"bcmh/internal/graph"
)

// BFS is a specialized unweighted breadth-first traversal kernel for the
// estimators' hot path. Compared to Computer.Run it:
//
//   - stores distances as int32 and tests shortest-path membership with
//     exact integer comparisons (dist[u]+1 == dist[w]), eliminating the
//     per-edge float-tolerance checks of SPD.OnShortestPath;
//   - packs each vertex's (epoch stamp, distance) pair into one uint64
//     tag, so the per-edge visited test and parent test are a single
//     8-byte load and compare — one potential cache miss per probe
//     instead of two — and a run resets lazily by bumping the epoch
//     (one O(n) clear of the tag array only at the 2^32 wrap);
//   - keeps the frontier in one flat reusable queue and walks a private
//     int32 CSR copy of the adjacency (half the memory traffic of the
//     graph's []int lists, no per-vertex slice-header calls);
//   - traverses direction-optimizing (NewBFS; see Run): levels whose
//     frontier edges dominate the remaining graph run a Beamer-style
//     bottom-up step over uint64 bitsets instead of the top-down scan,
//     and the private CSR is laid out in degree-descending slot order
//     (graph.DegreeOrdering) so the bottom-up sweep streams hub rows
//     first and the frontier bit tests stay cache-resident. External
//     vertex ids are untouched — the relabeling is internal to the
//     kernel, translated at the API boundary.
//
// Direction optimization changes no results: distances, σ counts and
// reached sets are exactly equal to the classic kernel's on every
// graph. Distances and reachability are integers decided by level;
// σ values are integer counts carried in float64, and integer float64
// sums are exact and order-independent while every partial sum stays
// ≤ 2^53 (see SigmaExactLimit), so summing a vertex's parents in
// bottom-up row order instead of top-down discovery order produces the
// same bits. Only the intra-level positions in the visit queue differ,
// and nothing reads them: the backward pass sums each vertex's own
// row, in row order. The classic path remains constructible
// (NewBFSClassic) for benchmarking and for pins that want the
// historical queue order; directed graphs always take it (bottom-up
// scans a vertex's out-row for its parents, which finds in-neighbors
// only under symmetry).
//
// The private CSR is laid out for cheap reseating across delta-overlay
// versions (graph.ApplyEditsOverlay): per-vertex bounds live in one
// interleaved array (adjacency of slot s is adj[bnd[2s]:bnd[2s+1]],
// the two bounds on one cache line, same memory traffic as classic
// offsets), the clean base CSR fills a fixed arena prefix, and
// overlay-replaced vertices point into patch lists appended past it.
// Reseat moves the kernel to another version of the same base in
// O(overlay) — reset the patched bounds, truncate the arena, append
// the new overlay — instead of the O(n+m) rebuild a new kernel costs.
//
// σ path counts remain float64: they grow combinatorially and would
// overflow any fixed-width integer on graphs the samplers care about.
//
// Accumulate runs Brandes' backward pass over the latest Run (see the
// package doc); DeltaOf reads its dependencies.
//
// A BFS is not safe for concurrent use; create one per goroutine.
// DistOf and SigmaOf are undefined at vertices not reached by the
// latest Run — consult Reached before reading them.
type BFS struct {
	g       *graph.Graph
	bnd     []int32 // len 2n; adjacency of slot s is adj[bnd[2s]:bnd[2s+1]]
	adj     []int32 // arena: base CSR prefix, then overlay patch lists
	baseOff []int32 // len n+1: clean base-CSR offsets, for Reseat resets
	baseLen int     // clean prefix length of adj
	patched []int32 // slots whose bounds differ from the base offsets
	// tag[s] = uint64(epoch)<<32 | uint64(uint32(dist)): the slot was
	// reached by the latest Run iff tag[s]>>32 == epoch.
	tag   []uint64
	sigma []float64
	epoch uint32
	queue []int32

	// Direction-optimizing state. ord maps external vertex ids to the
	// kernel's degree-descending slots (nil in classic mode and for
	// directed graphs: slot == vertex id). visited/front are per-run
	// scratch bitsets over slots — visited is rebuilt from the queue at
	// every top-down→bottom-up switch and front per bottom-up level, so
	// neither carries state between runs and the epoch wrap needs to
	// clear only the tag array. edges tracks the seated CSR's total row
	// length (Σ degrees) for the direction heuristic.
	hybrid  bool
	ord     *graph.Ordering
	visited []uint64
	front   []uint64
	edges   int

	// Brandes backward pass scratch over slots, allocated on the first
	// Accumulate: delta[s] = δ_source•(s) and coeff[s] = (1+δ)/σ, the
	// term slot s contributes to each predecessor's sum.
	delta, coeff []float64
}

// Direction heuristic (Beamer et al., "Direction-Optimizing
// Breadth-First Search"): switch top-down → bottom-up when the
// frontier's out-edges exceed 1/hybridAlpha of the edges still
// incident to undiscovered vertices, and back when the frontier
// shrinks below n/hybridBeta vertices. The σ-counting bottom-up step
// cannot early-exit at the first parent (σ needs the sum over all of
// them), so its saving is cheaper probes — sequential row streaming
// against an L1-resident frontier bitset versus scattered tag probes —
// rather than fewer probes, and hybridAlpha is accordingly far more
// conservative than the early-exit literature value of 14. Each probe
// is branch-free: the frontier bit becomes an all-ones or all-zeros
// mask ANDed into the neighbour's σ bits, since whether a neighbour
// sits on a frontier holding a quarter to over half the graph is a
// branch the predictor misses. The mask is an AND, not a multiply, so
// a stale ±Inf or NaN σ left at a slot by an earlier Run adds +0 (a
// multiply would make it NaN).
const (
	hybridAlpha = 2
	hybridBeta  = 24
	// hybridTailRatio: NewBFS engages the direction-optimizing kernel
	// only when maxDegree ≥ hybridTailRatio × meanDegree (see
	// heavyTailed).
	hybridTailRatio = 3
)

// NewBFS returns a BFS kernel for g: direction-optimizing with
// degree-descending slots on undirected graphs whose degree
// distribution is heavy-tailed (the regime where bottom-up levels
// win), the classic top-down kernel otherwise — uniform-degree inputs
// like grids and sparse ER never reach a frontier dense enough for
// bottom-up to fire, so they'd pay the per-level heuristic accounting
// for nothing (measured ~25% on Grid(40,40)). It panics if g is
// weighted: the kernel counts hops, and a weighted graph silently
// measured in hops would corrupt every estimate built on it (weighted
// graphs take the Dijkstra route in Computer).
func NewBFS(g *graph.Graph) *BFS {
	return newBFS(g, !g.Directed() && heavyTailed(g))
}

// heavyTailed reports whether g's maximum degree is at least
// hybridTailRatio times its mean degree — scale-free and social-style
// graphs qualify (BA-2000: ~25x; karate: ~3.7x), grids, paths, rings
// and sparse ER (~1-2.3x) do not. The decision is deterministic in g's
// current adjacency, so every kernel and target snapshot built on one
// graph agrees on the traversal layout.
func heavyTailed(g *graph.Graph) bool {
	n := g.N()
	if n == 0 {
		return false
	}
	edgeSum, maxDeg := 0, 0
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		edgeSum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg*n >= hybridTailRatio*edgeSum
}

// NewBFSClassic returns the classic top-down kernel: vertex ids equal
// slots and traversal is the historical single-queue loop. Results
// (distances, σ, reached sets) are exactly those of NewBFS; visit
// order within a level and per-run cost differ. It exists for
// benchmarking the hybrid against and for order-sensitive pins.
func NewBFSClassic(g *graph.Graph) *BFS {
	return newBFS(g, false)
}

func newBFS(g *graph.Graph, hybrid bool) *BFS {
	if g.Weighted() {
		panic("sssp: BFS kernel requires an unweighted graph")
	}
	n := g.N()
	b := &BFS{
		bnd:     make([]int32, 2*n),
		baseOff: make([]int32, n+1),
		tag:     make([]uint64, n),
		sigma:   make([]float64, n),
		queue:   make([]int32, 0, n),
		hybrid:  hybrid,
	}
	if hybrid {
		b.ord = g.DegreeOrdering()
		words := (n + 63) / 64
		b.visited = make([]uint64, words)
		b.front = make([]uint64, words)
	}
	degSum := 0
	for v := 0; v < n; v++ {
		degSum += len(g.BaseNeighbors(v))
	}
	b.adj = make([]int32, 0, degSum)
	for s := 0; s < n; s++ {
		v := s
		if b.ord != nil {
			v = int(b.ord.Inv[s])
		}
		b.bnd[2*s] = int32(len(b.adj))
		for _, w := range g.BaseNeighbors(v) {
			b.adj = append(b.adj, b.slotOf(w))
		}
		b.bnd[2*s+1] = int32(len(b.adj))
		b.baseOff[s+1] = int32(len(b.adj))
	}
	b.baseLen = len(b.adj)
	b.seat(g)
	return b
}

// slotOf maps an external vertex id to the kernel's internal slot.
func (b *BFS) slotOf(v int) int32 {
	if b.ord != nil {
		return b.ord.Perm[v]
	}
	return int32(v)
}

// seat points the kernel at g's overlay: each replaced adjacency list
// is appended to the arena past the clean prefix and the vertex's
// bounds are redirected there. No-op for clean graphs.
func (b *BFS) seat(g *graph.Graph) {
	b.g = g
	b.edges = b.baseLen
	g.ForEachOverlay(func(v int, ns []int, _ []float64) {
		s := b.slotOf(v)
		b.edges += len(ns) - int(b.baseOff[s+1]-b.baseOff[s])
		b.bnd[2*s] = int32(len(b.adj))
		for _, w := range ns {
			b.adj = append(b.adj, b.slotOf(w))
		}
		b.bnd[2*s+1] = int32(len(b.adj))
		b.patched = append(b.patched, s)
	})
}

// Reseat moves the kernel to g2, another snapshot of the same graph
// lineage. When g2 shares its base CSR with the current seat (an
// overlay sibling — graph.SameStorage), the move costs O(overlay of
// either side): patched bounds are reset to the base offsets, the
// arena is truncated, and g2's overlay is appended. Otherwise the
// kernel is rebuilt from scratch. It reports whether the cheap
// incremental path was taken. Traversal results after a Reseat are
// bit-identical to a fresh NewBFS(g2). (Overlay siblings inherit the
// lineage's degree ordering, so the kernel's slot layout stays valid
// across the move.)
func (b *BFS) Reseat(g2 *graph.Graph) bool {
	if g2 == b.g {
		return true
	}
	if !graph.SameStorage(b.g, g2) {
		*b = *newBFS(g2, b.hybrid && !g2.Directed())
		return false
	}
	for _, s := range b.patched {
		b.bnd[2*s] = b.baseOff[s]
		b.bnd[2*s+1] = b.baseOff[s+1]
	}
	b.patched = b.patched[:0]
	b.adj = b.adj[:b.baseLen]
	b.seat(g2)
	return true
}

// Ordering returns the internal slot relabeling the kernel traverses
// under, or nil when slots equal vertex ids (classic mode, directed
// graphs). Scan fast paths compare it by pointer against a
// TargetSPD's Ord to decide whether the slot-space mirrors line up.
func (b *BFS) Ordering() *graph.Ordering { return b.ord }

// Raw exposes the kernel's slot-indexed tag and σ arrays plus the
// current epoch for the sequential identity scans (brandes, measure):
// slot s was reached by the latest Run iff tag[s]>>32 == epoch, its
// distance is uint32(tag[s]) and its σ is sigma[s]. The slices alias
// kernel state — read-only, invalidated by the next Run.
func (b *BFS) Raw() (tag []uint64, sigma []float64, epoch uint32) {
	return b.tag, b.sigma, b.epoch
}

// Run traverses from source, filling distances, path counts and the
// visit order. It panics if source is out of range.
func (b *BFS) Run(source int) {
	if source < 0 || source >= b.g.N() {
		panic("sssp: BFS source out of range")
	}
	b.epoch++
	if b.epoch == 0 {
		// Stamp wrap: one O(n) tag clear every 2^32 runs. The hybrid
		// bitsets need no clearing here — visited is rebuilt from the
		// queue at every top-down→bottom-up switch and front per
		// bottom-up level, so no bit ever survives into a later Run.
		clear(b.tag)
		b.epoch = 1
	}
	if b.hybrid {
		b.runHybrid(b.slotOf(source))
	} else {
		b.runClassic(int32(source))
	}
	if sigmaCheck {
		b.checkSigmaExact()
	}
}

// runClassic is the historical single-queue top-down loop, operating
// on slots (== vertex ids in classic mode).
func (b *BFS) runClassic(src int32) {
	ep := uint64(b.epoch)
	bnd, adj := b.bnd, b.adj
	tag, sigma := b.tag, b.sigma
	q := b.queue[:0]
	tag[src] = ep << 32 // distance 0
	sigma[src] = 1
	q = append(q, src)
	for head := 0; head < len(q); head++ {
		u := q[head]
		// Tag every neighbor joins the next level with: same epoch,
		// distance dist(u)+1.
		next := tag[u] + 1
		su := sigma[u]
		for _, v := range adj[bnd[2*u]:bnd[2*u+1]] {
			t := tag[v]
			switch {
			case t>>32 != ep: // unreached this run
				tag[v] = next
				sigma[v] = su
				q = append(q, v)
			case t == next: // already on the next level: extra parent
				sigma[v] += su
			}
		}
	}
	b.queue = q
}

// runHybrid is the direction-optimizing levelized loop: per level the
// α/β heuristic picks a top-down frontier expansion or a bottom-up
// sweep of the undiscovered slots. Both steps append the next level to
// the shared queue, so lo:hi always brackets the current frontier.
func (b *BFS) runHybrid(src int32) {
	n := len(b.tag)
	q := b.queue[:0]
	b.tag[src] = uint64(b.epoch) << 32
	b.sigma[src] = 1
	q = append(q, src)
	lo, hi := 0, 1
	frontEdges := int(b.bnd[2*src+1] - b.bnd[2*src])
	remEdges := b.edges - frontEdges
	bottomUp := false
	for lo < hi {
		if bottomUp {
			if (hi-lo)*hybridBeta < n {
				bottomUp = false
			}
		} else if frontEdges*hybridAlpha > remEdges && (hi-lo)*hybridBeta >= n {
			// The α test alone also fires at the traversal tail (remEdges
			// small, frontier narrow); requiring the frontier to clear the
			// β exit threshold keeps those levels top-down instead of
			// paying a visited rebuild per flip.
			bottomUp = true
			// The visited bitset must cover everything tagged this run;
			// rebuild it from the queue (top-down steps don't maintain
			// it — switches are rare, full rebuilds keep them simple).
			clear(b.visited)
			for _, u := range q[:hi] {
				b.visited[u>>6] |= 1 << (uint(u) & 63)
			}
		}
		var nextEdges int
		if bottomUp {
			q, nextEdges = b.stepBottomUp(q, lo, hi)
		} else {
			q, nextEdges = b.stepTopDown(q, lo, hi)
		}
		remEdges -= nextEdges
		frontEdges = nextEdges
		lo, hi = hi, len(q)
	}
	b.queue = q
}

// stepTopDown expands the frontier q[lo:hi] exactly like the classic
// loop, additionally summing the out-degrees of the discoveries for
// the direction heuristic.
func (b *BFS) stepTopDown(q []int32, lo, hi int) ([]int32, int) {
	ep := uint64(b.epoch)
	bnd, adj := b.bnd, b.adj
	tag, sigma := b.tag, b.sigma
	nextEdges := 0
	for i := lo; i < hi; i++ {
		u := q[i]
		next := tag[u] + 1
		su := sigma[u]
		for _, v := range adj[bnd[2*u]:bnd[2*u+1]] {
			t := tag[v]
			switch {
			case t>>32 != ep: // unreached this run
				tag[v] = next
				sigma[v] = su
				q = append(q, v)
				nextEdges += int(bnd[2*v+1] - bnd[2*v])
			case t == next: // already on the next level: extra parent
				sigma[v] += su
			}
		}
	}
	return q, nextEdges
}

// stepBottomUp discovers the next level from below: every undiscovered
// slot scans its own adjacency row and sums σ over the neighbors that
// sit on the current frontier. No early exit is possible — σ_w is the
// sum over *all* level-d parents of w — so the win over top-down is
// per-probe cost, not probe count: rows stream sequentially (hubs
// first under the degree ordering) and the frontier test is a masked
// add against an L1-resident bitset (see hybridAlpha). Row-order
// summation is exact by the σ ≤ 2^53 integer argument
// (SigmaExactLimit), and a masked term is +0, so the resulting σ match
// the top-down kernel bit for bit.
func (b *BFS) stepBottomUp(q []int32, lo, hi int) ([]int32, int) {
	bnd, adj := b.bnd, b.adj
	tag, sigma := b.tag, b.sigma
	visited, front := b.visited, b.front
	clear(front)
	for _, u := range q[lo:hi] {
		front[u>>6] |= 1 << (uint(u) & 63)
	}
	next := tag[q[lo]] + 1 // the whole frontier carries one level tag
	nextEdges := 0
	n := len(tag)
	for wi := range visited {
		un := ^visited[wi]
		if wi == len(visited)-1 && n&63 != 0 {
			un &= 1<<(uint(n)&63) - 1 // mask slots past n in the last word
		}
		for un != 0 {
			tz := bits.TrailingZeros64(un)
			un &= un - 1
			w := int32(wi<<6 | tz)
			var s float64
			for _, u := range adj[bnd[2*w]:bnd[2*w+1]] {
				// m is all ones iff u is on the frontier (see hybridAlpha).
				m := -(front[u>>6] >> (uint(u) & 63) & 1)
				s += math.Float64frombits(math.Float64bits(sigma[u]) & m)
			}
			if s != 0 { // ≥1 frontier parent: w joins the next level
				tag[w] = next
				sigma[w] = s
				visited[wi] |= 1 << uint(tz)
				q = append(q, w)
				nextEdges += int(bnd[2*w+1] - bnd[2*w])
			}
		}
	}
	return q, nextEdges
}

// Reached reports whether v was reached by the latest Run.
func (b *BFS) Reached(v int) bool {
	return uint32(b.tag[b.slotOf(v)]>>32) == b.epoch
}

// DistOf returns the hop-count distance of v from the latest Run's
// source. Defined only at reached vertices.
func (b *BFS) DistOf(v int) int32 {
	return int32(uint32(b.tag[b.slotOf(v)]))
}

// SigmaOf returns σ_source,v of the latest Run. Defined only at
// reached vertices.
func (b *BFS) SigmaOf(v int) float64 { return b.sigma[b.slotOf(v)] }

// Accumulate runs Brandes' backward pass over the latest Run, giving
// δ_source•(v) for every vertex v (read with DeltaOf). It works in
// pull form: slots in reverse level order, each summing over its own
// row, δ(u) = σ_u · Σ (1+δ(w))/σ(w) over the successors w, the row
// entries whose tag is u's plus one level. Each sum follows u's row,
// which every kernel layout keeps in the graph's neighbour order, so
// the values are bit-identical across the hybrid and classic kernels,
// overlay seats and a unit-weight Dijkstra. It allocates only on its
// first call.
func (b *BFS) Accumulate() {
	if b.delta == nil {
		b.delta = make([]float64, len(b.tag))
		b.coeff = make([]float64, len(b.tag))
	}
	bnd, adj := b.bnd, b.adj
	tag, sigma, delta, coeff := b.tag, b.sigma, b.delta, b.coeff
	q := b.queue
	for i := len(q) - 1; i > 0; i-- {
		u := q[i]
		next := tag[u] + 1
		var s float64
		for _, w := range adj[bnd[2*u]:bnd[2*u+1]] {
			// x is 0 iff w is a successor, and m is then all ones. As in
			// the bottom-up step, the AND makes a non-successor's stale
			// coeff (±Inf or NaN after σ overflowed) add +0.
			x := tag[w] ^ next
			m := (x|-x)>>63 - 1
			s += math.Float64frombits(math.Float64bits(coeff[w]) & m)
		}
		d := sigma[u] * s
		delta[u] = d
		coeff[u] = (1 + d) / sigma[u]
	}
	delta[q[0]] = 0 // the source
}

// DeltaOf returns δ_source•(v) from the latest Accumulate: 0 at the
// source and at vertices the latest Run did not reach.
func (b *BFS) DeltaOf(v int) float64 {
	s := b.slotOf(v)
	if uint32(b.tag[s]>>32) != b.epoch {
		return 0
	}
	return b.delta[s]
}

// TargetSPD is a retained dense snapshot of the shortest-path data
// rooted at one fixed vertex of an unweighted graph: d(target, t) and
// σ_target,t for every t, with Unreachable (-1) distances at vertices
// in other components. It is what the identity-based dependency
// evaluator (brandes.DependencyOnTargetIdentity) caches once per MH
// chain target and reads on every step. Immutable after construction
// and safe to share across goroutines.
//
// Dist and Sigma are indexed by external vertex id regardless of the
// layout of the kernel that took the snapshot, so a snapshot is
// readable by any kernel over the same structure — relabeled or not —
// and the identity scans always accumulate in external index order,
// keeping dependency sums bit-identical across kernel layouts.
type TargetSPD struct {
	Target int
	Dist   []int32
	Sigma  []float64
}

// NewTargetSPD runs one BFS from target on b and snapshots the result
// into a TargetSPD that survives subsequent runs of b.
func NewTargetSPD(b *BFS, target int) *TargetSPD {
	b.Run(target)
	n := b.g.N()
	t := &TargetSPD{
		Target: target,
		Dist:   make([]int32, n),
		Sigma:  make([]float64, n),
	}
	for v := 0; v < n; v++ {
		if b.Reached(v) {
			t.Dist[v] = b.DistOf(v)
			t.Sigma[v] = b.SigmaOf(v)
		} else {
			t.Dist[v] = Unreachable
		}
	}
	return t
}
