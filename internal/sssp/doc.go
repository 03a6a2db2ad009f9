// Package sssp provides the single-source shortest-path substrate every
// estimator in this repository is built on: BFS and Dijkstra traversals
// that produce shortest-path DAGs (distance, path counts σ, and a
// processing order suitable for Brandes-style dependency accumulation),
// random shortest-path extraction, and balanced bidirectional BFS for
// path sampling in the style of KADABRA [7].
//
// A Computer owns reusable buffers so repeated traversals allocate
// nothing after warm-up; each estimator sample costs exactly one
// traversal, O(n+m) unweighted or O(m + n log n) weighted, matching the
// per-sample complexity the paper states.
//
// # The direction-optimizing BFS kernel
//
// The BFS kernel behind the identity oracle (NewBFS) is a hybrid
// top-down/bottom-up traversal in the style of Beamer et al.,
// specialized for σ counting:
//
//   - Top-down is the classic epoch-stamped loop: pop the frontier,
//     scan each member's adjacency row, stamp discoveries, accumulate σ
//     into children. Work is proportional to the edges leaving the
//     frontier.
//
//   - Bottom-up inverts the scan on levels where the frontier is a
//     large fraction of the graph: every *unvisited* vertex scans its
//     own row for parents on the current level and sums their σ.
//     Membership tests are uint64 bitset probes (a frontier bitset
//     rebuilt per bottom-up level, a visited bitset rebuilt from the
//     queue at each direction switch), so a level costs the unvisited
//     vertices' row lengths instead of the frontier's — on low-diameter
//     heavy-tailed graphs, where one or two levels hold most of the
//     graph, that is the difference between touching every edge twice
//     and touching most of them once.
//
//   - The per-level switch is the standard α/β edge-count heuristic:
//     go bottom-up when frontierEdges·α exceeds the edges not yet
//     consumed and the frontier is at least n/β; return top-down when
//     the frontier shrinks below n/β. α and β were tuned on the in-tree
//     benchmarks (see hybridAlpha/hybridBeta) — α sits far below the
//     literature's because a σ-counting bottom-up step cannot stop at
//     the first parent (it must sum *all* current-level parents for the
//     count to be exact), which shrinks bottom-up's advantage and
//     rewards later switching.
//
//   - The kernel's private CSR is laid out in degree-descending slot
//     order (graph.DegreeOrdering): bottom-up sweeps then stream hub
//     rows — the rows that dominate parent hits — from the front of the
//     adjacency array, and the frontier bitset's hot bits cluster in
//     its low words. The relabeling is internal; every public accessor
//     (Reached, DistOf, SigmaOf, DeltaOf, TargetSPD) speaks external
//     vertex ids, and dependency scans accumulate in external index
//     order, so results are bit-identical to the classic kernel's.
//
//   - NewBFS enables the hybrid path only for undirected graphs whose
//     degree distribution is actually heavy-tailed (maxDegree·n ≥
//     hybridTailRatio·Σdeg): on uniform-degree topologies (grids,
//     paths, sparse ER) the bottom-up condition essentially never
//     fires, so those graphs keep the classic loop and pay nothing.
//     NewBFSClassic forces the classic loop for any graph.
//
// Exactness survives the direction switches because σ values are
// integer counts carried in float64: as long as every count stays ≤
// 2^53 (SigmaExactLimit), parent-σ summation is exact in either order,
// so bottom-up's row-order sums equal top-down's discovery-order sums
// bit-for-bit. The hybrid and classic kernels are held bit-equal —
// dist, σ, and reached set, across overlay seating and Reseat — by the
// randomized property test in this package, and σ ≤ 2^53 is enforced
// by an opt-in debug sweep (sigmaCheck).
//
// # The Brandes backward pass
//
// BFS and Dijkstra each carry Brandes' backward pass over their latest
// Run: Accumulate computes δ_s•(v) = Σ_{t≠s,v} σ_st(v)/σ_st for every
// vertex v, and DeltaOf reads it by external vertex id (0 at the
// source and at unreached vertices). One traversal and one pass serve
// every vertex at once; this is the unit of work of exact betweenness
// on undirected graphs (brandes.BCParallel) and of a betweenness
// ranking's shared source passes (internal/rank), which pick the
// kernel for a graph with brandes.NewPass.
//
// The pass works in pull form. It walks the traversal order backwards
// and each vertex u sums over its own row,
//
//	δ(u) = σ_u · Σ_{w successor of u} (1+δ(w))/σ(w),
//
// with successors told apart by the kernel's own shortest-path test:
// the level tag on BFS (w's tag is u's plus one); on Dijkstra the
// WeightEps tie test plus the settle order, as Run adds σ only into
// vertices not yet settled. Each term (1+δ(w))/σ(w) is computed once,
// when w is done, and each sum runs in u's row order, which every
// kernel layout keeps (the hybrid kernel relabels slots, not row
// order; an overlay seat appends the replaced rows as the graph lists
// them). So δ is
// bit-identical across the hybrid and classic BFS kernels, a
// unit-weight Dijkstra, and a reseated kernel versus a fresh one on
// the compacted graph. The push form of the reference
// (brandes.Accumulate, which scatters σ_u·(1+δ(w))/σ(w) into every
// predecessor u in traversal order) rounds differently; the two agree
// within 1e-12 relative, and betweenness summed from the pass agrees
// with Brandes in exact math/big arithmetic within 1e-15 relative, as
// the tests in this package hold them. The pass's scratch (two
// n-length float arrays, and on Dijkstra the settle positions) is
// allocated on its first call, so the chains' kernels, which never run
// it, do not grow.
//
// Measured on the in-tree benchmarks (single-core Xeon 2.10GHz,
// go1.24, medians): the kernel pair BenchmarkBFSHybrid vs
// BenchmarkBFSClassic runs 72.7μs vs 118.6μs per traversal on a
// 2000-vertex Barabási–Albert graph (1.63x), with grid40x40 at parity
// by the heavy-tail gate; end to end, BenchmarkT2SingleVertex improved
// 106.6ms → 63.9ms (1.67x) and BenchmarkEngineBatch32 3.25s → 2.12s
// (1.53x), both at zero allocations per Run.
package sssp
