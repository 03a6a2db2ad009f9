package sssp

import (
	"math"

	"bcmh/internal/graph"
)

// dialMaxWeight is the largest edge weight for which the Dijkstra
// kernel uses the exact integer bucket queue (Dial's algorithm): every
// weight must be a positive integer no larger than this. The bucket
// ring costs maxW+2 reusable slices and one ring slot visit per
// distance unit, so the bound keeps degenerate weight ranges (one huge
// integer weight) off the bucket route.
const dialMaxWeight = 64

// dialMaxRatio is the largest max/min edge-weight ratio for which
// non-integral weights take the calendar-queue bucket route (bucket
// width = the minimum edge weight). The ring needs ratio+2 slices and
// scans one slot per bucket width of distance, so a huge spread would
// degenerate into empty-slot walking; beyond it the heap is used.
const dialMaxRatio = 64

// Dijkstra is the weighted analog of the BFS kernel: a specialized
// single-source shortest-path traversal for the estimators' hot path
// on weighted undirected graphs. Compared to Computer.Run it:
//
//   - walks a private int32 CSR copy of the adjacency with a parallel
//     flat weight array (no per-vertex slice-header calls, half the
//     index memory traffic of the graph's []int lists);
//   - resets lazily via epoch stamps (reached and settled marks are
//     uint32 epochs, no O(n) clear per run) and reuses every buffer,
//     so repeated traversals allocate nothing after warm-up;
//   - replaces the heap with a bucket-ring priority queue whenever the
//     weight range allows: Dial's algorithm (bucket width 1, exact
//     integer arithmetic, no float tolerance at all) when every weight
//     is an integer at most dialMaxWeight, and its calendar-queue
//     generalization (bucket width = the minimum edge weight) when the
//     max/min weight ratio is at most dialMaxRatio. Push and pop are
//     O(1); because the bucket width never exceeds the minimum edge
//     weight, no relaxation lands in the bucket being scanned, so
//     entries of one bucket settle in any order without affecting
//     distances or σ. General weight ranges fall back to a 4-ary
//     implicit heap with lazy deletion — shallower than a binary heap,
//     so the sift-down path (the hot operation under lazy deletion)
//     touches fewer cache lines.
//
// Like the BFS kernel, the private CSR is laid out for cheap reseating
// across delta-overlay versions: interleaved per-vertex bounds
// (adjacency of u is adj[bnd[2u]:bnd[2u+1]]), a clean base arena
// prefix, and overlay patch lists appended past it, with a parallel
// weight arena. Reseat moves the kernel to an overlay sibling in
// O(overlay); the queue classification is re-derived there from the
// base weight statistics plus the new overlay's weights, so an overlay
// edge whose weight breaks the bucket regime (non-integral, out of
// ratio) safely demotes the kernel to the next route.
//
// An unweighted graph is accepted and treated as all-unit weights
// (the bucket route degenerates to BFS, bit-identical to the BFS
// kernel); route selection in internal/mcmc still prefers the BFS
// kernel there.
//
// σ path counts follow Brandes' weighted variant: a strictly shorter
// path to v resets σ_v to σ_u, an equal-length path (within WeightEps
// relative tolerance on the heap route, exactly on the bucket route)
// adds σ_u.
//
// A Dijkstra is not safe for concurrent use; create one per goroutine.
// DistOf and SigmaOf are undefined at vertices not reached by the
// latest Run — consult Reached (or iterate Order, which lists exactly
// the reached vertices in non-decreasing distance order, exact on the
// heap and integer routes, up to one bucket width on the calendar
// route) before reading them. Order aliases an internal buffer
// invalidated by the next Run.
type Dijkstra struct {
	g       *graph.Graph
	bnd     []int32   // len 2n; adjacency of u is adj[bnd[2u]:bnd[2u+1]]
	adj     []int32   // arena: base CSR prefix, then overlay patch lists
	wts     []float64 // parallel to adj; nil: unit weights (unweighted graph)
	baseOff []int32   // len n+1: clean base-CSR offsets, for Reseat resets
	baseLen int       // clean prefix length of adj/wts
	patched []int32   // vertices whose bounds differ from the base offsets

	// Base weight statistics, fixed at construction; the effective
	// classification folds the current overlay's weights on top at
	// every (re)seat.
	baseIntegral       bool
	baseMinW, baseMaxW float64

	dist  []float64
	sigma []float64
	tag   []uint32 // reached by the latest Run iff tag[v] == epoch
	done  []uint32 // settled by the latest Run iff done[v] == epoch
	epoch uint32
	order []int32

	// 4-ary heap with lazy deletion (general weights).
	heapV []int32
	heapD []float64

	// Bucket ring (Dial / calendar queue). delta is the bucket width:
	// exactly 1 for integral weights, minW·(1-1e-6) otherwise (shrunk
	// so float rounding of du+w can never land a relaxation at the
	// boundary of the bucket being scanned). The open set spans at
	// most maxW of distance, so len(buckets) = maxW/delta+2 FIFO
	// buckets indexed by distance/delta mod the ring size never mix
	// fresh and stale generations.
	dial    bool
	delta   float64
	buckets [][]int32
}

// NewDijkstra returns a Dijkstra kernel for g. It panics if g is
// directed: the kernel's one consumer, the pair-dependency identity,
// reads σ_vr and d(v,r) from v's traversal, which needs symmetry, and
// a directed graph silently traversed as undirected would corrupt
// every estimate built on it.
func NewDijkstra(g *graph.Graph) *Dijkstra {
	if g.Directed() {
		panic("sssp: Dijkstra kernel requires an undirected graph")
	}
	n := g.N()
	d := &Dijkstra{
		bnd:     make([]int32, 2*n),
		baseOff: make([]int32, n+1),
		dist:    make([]float64, n),
		sigma:   make([]float64, n),
		tag:     make([]uint32, n),
		done:    make([]uint32, n),
		order:   make([]int32, 0, n),
	}
	degSum := 0
	for v := 0; v < n; v++ {
		degSum += len(g.BaseNeighbors(v))
	}
	d.adj = make([]int32, 0, degSum)
	weighted := g.Weighted()
	if weighted {
		d.wts = make([]float64, 0, degSum)
	}
	d.baseIntegral = true
	d.baseMinW, d.baseMaxW = math.Inf(1), 1.0
	for v := 0; v < n; v++ {
		ns := g.BaseNeighbors(v)
		ws := g.BaseNeighborWeights(v)
		for i, w := range ns {
			d.adj = append(d.adj, int32(w))
			if weighted {
				wt := ws[i]
				d.wts = append(d.wts, wt)
				d.foldBaseWeight(wt)
			}
		}
		d.bnd[2*v] = d.baseOff[v]
		d.bnd[2*v+1] = int32(len(d.adj))
		d.baseOff[v+1] = int32(len(d.adj))
	}
	d.baseLen = len(d.adj)
	d.seat(g)
	return d
}

// foldBaseWeight folds one base-CSR weight into the fixed statistics.
func (d *Dijkstra) foldBaseWeight(wt float64) {
	if wt != math.Trunc(wt) || wt < 1 || wt > dialMaxWeight {
		d.baseIntegral = false
	}
	if wt < d.baseMinW {
		d.baseMinW = wt
	}
	if wt > d.baseMaxW {
		d.baseMaxW = wt
	}
}

// seat points the kernel at g's overlay (patch lists past the clean
// arena prefix, as in BFS.seat) and re-derives the queue
// classification from the base weight statistics extended by the
// overlay's weights.
func (d *Dijkstra) seat(g *graph.Graph) {
	d.g = g
	integral, minW, maxW := d.baseIntegral, d.baseMinW, d.baseMaxW
	g.ForEachOverlay(func(v int, ns []int, ws []float64) {
		d.bnd[2*v] = int32(len(d.adj))
		for i, w := range ns {
			d.adj = append(d.adj, int32(w))
			if d.wts != nil {
				wt := ws[i]
				d.wts = append(d.wts, wt)
				if wt != math.Trunc(wt) || wt < 1 || wt > dialMaxWeight {
					integral = false
				}
				if wt < minW {
					minW = wt
				}
				if wt > maxW {
					maxW = wt
				}
			}
		}
		d.bnd[2*v+1] = int32(len(d.adj))
		d.patched = append(d.patched, int32(v))
	})
	d.dial, d.delta = false, 0
	switch {
	case d.wts == nil || integral:
		// Dial's algorithm proper: width-1 buckets, exact arithmetic.
		d.dial = true
		d.delta = 1
		d.ensureBuckets(int(maxW) + 2)
	case maxW <= minW*dialMaxRatio:
		// Calendar queue: bucket width just under the minimum weight.
		d.dial = true
		d.delta = minW * (1 - 1e-6)
		d.ensureBuckets(int(maxW/d.delta) + 2)
	}
}

// ensureBuckets grows the bucket ring to at least k slots. A ring
// larger than needed stays correct (the open set still spans fewer
// slots than the ring), so reseating to a narrower weight range keeps
// the old allocation.
func (d *Dijkstra) ensureBuckets(k int) {
	for len(d.buckets) < k {
		d.buckets = append(d.buckets, nil)
	}
}

// Reseat moves the kernel to g2, another snapshot of the same graph
// lineage, in O(overlay) when g2 shares its base CSR with the current
// seat (graph.SameStorage); otherwise the kernel is rebuilt. It
// reports whether the cheap incremental path was taken. Traversal
// results after a Reseat are bit-identical to a fresh NewDijkstra(g2).
func (d *Dijkstra) Reseat(g2 *graph.Graph) bool {
	if g2 == d.g {
		return true
	}
	if !graph.SameStorage(d.g, g2) {
		*d = *NewDijkstra(g2)
		return false
	}
	for _, v := range d.patched {
		d.bnd[2*v] = d.baseOff[v]
		d.bnd[2*v+1] = d.baseOff[v+1]
	}
	d.patched = d.patched[:0]
	d.adj = d.adj[:d.baseLen]
	if d.wts != nil {
		d.wts = d.wts[:d.baseLen]
	}
	d.seat(g2)
	return true
}

// Run traverses from source, filling distances, path counts and the
// settle order. It panics if source is out of range.
func (d *Dijkstra) Run(source int) {
	if source < 0 || source >= d.g.N() {
		panic("sssp: Dijkstra source out of range")
	}
	d.epoch++
	if d.epoch == 0 { // stamp wrap: one O(n) clear every 2^32 runs
		clear(d.tag)
		clear(d.done)
		d.epoch = 1
	}
	d.order = d.order[:0]
	if d.dial {
		d.runDial(source)
	} else {
		d.runHeap(source)
	}
}

// runDial is the bucket-ring route: Dial's algorithm for integral
// weights (delta = 1, exact arithmetic) and its calendar-queue
// generalization otherwise (delta just under the minimum weight). Push
// and pop are O(1). Every relaxation from the bucket being scanned
// lands at distance at least delta further, i.e. in a strictly later
// bucket, so a bucket's entries are final when its scan starts and
// their relative order is irrelevant to distances and σ (tie parents
// always sit in strictly earlier buckets). The scan is index-based all
// the same, so even a boundary-rounding append to the current bucket
// would be processed, not dropped. The WeightEps comparisons reduce to
// exact tests when distances are integers, keeping the unit-weight
// case bit-identical to the BFS kernel.
func (d *Dijkstra) runDial(source int) {
	ep := d.epoch
	nb := len(d.buckets)
	inv := 1 / d.delta
	dist, sigma, tag, done := d.dist, d.sigma, d.tag, d.done
	dist[source] = 0
	sigma[source] = 1
	tag[source] = ep
	d.buckets[0] = append(d.buckets[0], int32(source))
	// pending counts bucket entries, duplicates included; every scanned
	// entry decrements it, so 0 means the ring is empty.
	pending := 1
	for cur := 0; pending > 0; cur++ {
		slot := cur % nb
		for qi := 0; qi < len(d.buckets[slot]); qi++ {
			u := d.buckets[slot][qi]
			pending--
			if done[u] == ep {
				continue // stale: settled at a smaller distance
			}
			done[u] = ep
			d.order = append(d.order, u)
			du := dist[u]
			su := sigma[u]
			ws := d.wts
			for i, end := d.bnd[2*u], d.bnd[2*u+1]; i < end; i++ {
				v := d.adj[i]
				w := 1.0
				if ws != nil {
					w = ws[i]
				}
				nd := du + w
				switch {
				case tag[v] != ep:
					tag[v] = ep
					dist[v] = nd
					sigma[v] = su
					pending++
					bi := int(nd*inv) % nb
					d.buckets[bi] = append(d.buckets[bi], v)
				case nd < dist[v]-WeightEps*(1+math.Abs(dist[v])):
					dist[v] = nd
					sigma[v] = su
					pending++
					bi := int(nd*inv) % nb
					d.buckets[bi] = append(d.buckets[bi], v)
				case math.Abs(nd-dist[v]) <= WeightEps*(1+math.Abs(dist[v])):
					if done[v] != ep {
						sigma[v] += su
					}
				}
			}
		}
		d.buckets[slot] = d.buckets[slot][:0]
	}
}

// runHeap is the general-weight route: a 4-ary implicit heap with lazy
// deletion, mirroring Computer.runDijkstra's WeightEps tie rules so
// both classify the same edges as shortest-path edges.
func (d *Dijkstra) runHeap(source int) {
	ep := d.epoch
	dist, sigma, tag, done := d.dist, d.sigma, d.tag, d.done
	d.heapV = d.heapV[:0]
	d.heapD = d.heapD[:0]
	dist[source] = 0
	sigma[source] = 1
	tag[source] = ep
	d.push(int32(source), 0)
	for len(d.heapV) > 0 {
		u := d.pop()
		if done[u] == ep {
			continue // stale entry: already settled at a smaller distance
		}
		done[u] = ep
		d.order = append(d.order, u)
		du := dist[u]
		su := sigma[u]
		ws := d.wts
		for i, end := d.bnd[2*u], d.bnd[2*u+1]; i < end; i++ {
			v := d.adj[i]
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			nd := du + w
			switch {
			case tag[v] != ep:
				tag[v] = ep
				dist[v] = nd
				sigma[v] = su
				d.push(v, nd)
			case nd < dist[v]-WeightEps*(1+math.Abs(dist[v])):
				dist[v] = nd
				sigma[v] = su
				d.push(v, nd)
			case math.Abs(nd-dist[v]) <= WeightEps*(1+math.Abs(dist[v])):
				if done[v] != ep {
					sigma[v] += su
				}
			}
		}
	}
}

func (d *Dijkstra) push(v int32, dv float64) {
	d.heapV = append(d.heapV, v)
	d.heapD = append(d.heapD, dv)
	i := len(d.heapV) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if d.heapD[parent] <= d.heapD[i] {
			break
		}
		d.heapD[parent], d.heapD[i] = d.heapD[i], d.heapD[parent]
		d.heapV[parent], d.heapV[i] = d.heapV[i], d.heapV[parent]
		i = parent
	}
}

func (d *Dijkstra) pop() int32 {
	v := d.heapV[0]
	last := len(d.heapV) - 1
	d.heapV[0], d.heapD[0] = d.heapV[last], d.heapD[last]
	d.heapV = d.heapV[:last]
	d.heapD = d.heapD[:last]
	i := 0
	for {
		first, end := 4*i+1, 4*i+5
		if first >= last {
			break
		}
		if end > last {
			end = last
		}
		smallest := i
		for c := first; c < end; c++ {
			if d.heapD[c] < d.heapD[smallest] {
				smallest = c
			}
		}
		if smallest == i {
			break
		}
		d.heapD[smallest], d.heapD[i] = d.heapD[i], d.heapD[smallest]
		d.heapV[smallest], d.heapV[i] = d.heapV[i], d.heapV[smallest]
		i = smallest
	}
	return v
}

// Reached reports whether v was reached by the latest Run.
func (d *Dijkstra) Reached(v int) bool { return d.tag[v] == d.epoch }

// DistOf returns the weighted distance of v from the latest Run's
// source. Defined only at reached vertices.
func (d *Dijkstra) DistOf(v int) float64 { return d.dist[v] }

// SigmaOf returns σ_source,v of the latest Run. Defined only at
// reached vertices.
func (d *Dijkstra) SigmaOf(v int) float64 { return d.sigma[v] }

// WeightedTargetSPD is the weighted analog of TargetSPD: a retained
// dense snapshot of the shortest-path data rooted at one fixed vertex
// of a weighted undirected graph — d(target, t) and σ_target,t for
// every t, with Unreachable (-1) distances at vertices in other
// components. It is what the weighted identity-based dependency
// evaluator (brandes.DependencyOnTargetIdentityWeighted) caches once
// per MH chain target and reads on every step. Immutable after
// construction and safe to share across goroutines.
type WeightedTargetSPD struct {
	Target int
	Dist   []float64
	Sigma  []float64
}

// NewWeightedTargetSPD runs one traversal from target on d and
// snapshots the result into a WeightedTargetSPD that survives
// subsequent runs of d.
func NewWeightedTargetSPD(d *Dijkstra, target int) *WeightedTargetSPD {
	d.Run(target)
	n := d.g.N()
	t := &WeightedTargetSPD{
		Target: target,
		Dist:   make([]float64, n),
		Sigma:  make([]float64, n),
	}
	for v := 0; v < n; v++ {
		if d.Reached(v) {
			t.Dist[v] = d.dist[v]
			t.Sigma[v] = d.sigma[v]
		} else {
			t.Dist[v] = Unreachable
		}
	}
	return t
}
