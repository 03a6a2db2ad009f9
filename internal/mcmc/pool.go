package mcmc

import (
	"container/list"
	"sync"
	"sync/atomic"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
	"bcmh/internal/sssp"
)

// targetSPDCacheSize bounds the per-pool LRU of target-side shortest
// path snapshots. Each entry is O(n) memory; 128 covers a large working
// set of distinct chain targets while keeping worst-case residency at
// 128·12 bytes per vertex (128·16 on weighted graphs), plus 128·8 while
// every entry also holds a parked μ column (see tspdEntry). Advance
// drops the entries of superseded versions, so the bound is spent on
// the serving version (plus whatever stragglers on older snapshots
// rebuild meanwhile).
const targetSPDCacheSize = 128

// aliasCacheSize bounds the per-version degree-proposal alias cache. A
// pool normally serves one version (Advance drops older ones), plus
// stragglers still running on superseded snapshots, so a handful of
// entries is plenty; past the bound the cache is dropped wholesale
// rather than tracking LRU order for something this cheap to rebuild.
const aliasCacheSize = 8

// chainBuffers is one chain's worth of reusable state. Which traversal
// kernel it carries depends on the graph (see routeFor): unweighted
// graphs get the specialized BFS kernel the identity oracle runs on,
// weighted graphs the specialized Dijkstra kernel. The chain loop's
// memo and visited arrays are dense and epoch-stamped, so each chain
// starts them afresh with a counter bump instead of a map clear (or an
// O(n) zeroing).
//
// A buffer set remembers which graph its kernels are seated on (g).
// When the pool hands it to a chain running on a different snapshot of
// the same lineage, the kernels are reseated in O(overlay) instead of
// rebuilt (sssp.BFS.Reseat) — the mutation path's per-chain cost.
type chainBuffers struct {
	g *graph.Graph // the snapshot the kernels are currently seated on

	bfs *sssp.BFS      // BFS identity route (unweighted)
	dij *sssp.Dijkstra // Dijkstra identity route (weighted)

	// Statistic memo: memoVal[v] is valid iff memoStamp[v] == memoEpoch.
	memoVal   []float64
	memoStamp []uint32
	memoEpoch uint32

	// Visited-state tracking for UniqueStates, same stamping scheme.
	visStamp []uint32
	visEpoch uint32
}

func newChainBuffers(g *graph.Graph) *chainBuffers {
	n := g.N()
	b := &chainBuffers{
		g:         g,
		memoVal:   make([]float64, n),
		memoStamp: make([]uint32, n),
		visStamp:  make([]uint32, n),
	}
	if routeFor(g) == routeBFSIdentity {
		b.bfs = sssp.NewBFS(g)
	} else {
		b.dij = sssp.NewDijkstra(g)
	}
	return b
}

// bumpEpoch advances an epoch counter over a stamp array, clearing the
// stamps on the 2^32 wrap so a stale stamp can never collide with the
// fresh epoch. Shared by the chain-buffer memo/visited sets and the
// SetOracle memo.
func bumpEpoch(stamp []uint32, epoch uint32) uint32 {
	epoch++
	if epoch == 0 {
		clear(stamp)
		epoch = 1
	}
	return epoch
}

// nextMemoEpoch invalidates every memo entry in O(1) (O(n) once per
// 2^32 reuses, when the stamp counter wraps).
func (b *chainBuffers) nextMemoEpoch() uint32 {
	b.memoEpoch = bumpEpoch(b.memoStamp, b.memoEpoch)
	return b.memoEpoch
}

// nextVisEpoch invalidates the visited set, same scheme.
func (b *chainBuffers) nextVisEpoch() uint32 {
	b.visEpoch = bumpEpoch(b.visStamp, b.visEpoch)
	return b.visEpoch
}

// tspdEntry is one cached target snapshot — the kind matching the
// graph's identity route is set, the other stays nil; once deduplicates
// concurrent first requests to a single traversal.
//
// col is the exact dependency column δ_·•(target) on this version, if
// a μ derivation parked one (MuExactPooledContext) and no chain run
// has taken it yet. The first run set up on the entry swaps it out
// (chainTarget) and drops it when its chains end. Take-once keeps a
// column alive only between a first touch and its chain: keeping
// columns for the entry's lifetime would pin one per cached target.
type tspdEntry struct {
	once sync.Once
	spd  *sssp.TargetSPD
	wspd *sssp.WeightedTargetSPD
	col  atomic.Pointer[[]float64]
}

// targetState is what a chain's oracles read for their target: the
// snapshot of the graph's identity route (the other kind stays nil)
// and, for the chain run that took it, the parked exact dependency
// column.
type targetState struct {
	spd  *sssp.TargetSPD
	wspd *sssp.WeightedTargetSPD
	col  []float64
}

// tspdKey addresses one target snapshot of one graph version. An edit
// can change the distances from any target, so each version computes
// its own snapshots, and Advance drops the entries of older versions.
// Chains already running on an older snapshot keep the snapshot
// pointers they took at setup.
type tspdKey struct {
	version uint64
	target  int
}

// BufferPool recycles chain buffers across estimation calls on one
// graph lineage and owns the caches every chain wants to share: the
// target-side shortest-path snapshots the identity oracle reads (one
// per distinct (version, target), LRU-bounded, each taken on a kernel
// checked out of the pool) and the degree-proposal alias tables (one
// per version in flight). One pool serves *all* snapshots of its
// lineage — methods take the snapshot being served, buffers reseat
// their kernels to it on checkout, and caches are keyed by version —
// so a mutation never rebuilds the pool. Safe for concurrent use;
// every buffer set it hands out is private to one chain until
// returned.
//
// Memory: because the pool outlives every version, Advance is what
// keeps its caches from filling with superseded versions. It drops the
// target snapshots (and any μ column parked in them) and the alias
// tables of versions older than the one it installs, so between swaps
// the caches hold at most targetSPDCacheSize snapshots of the serving
// version plus those that stragglers on older snapshots rebuild. A
// straggler (a "finish" chain-measure rank job, a long estimate) that
// needs a target it had not set up before the swap rebuilds that
// snapshot once per version bump it straddles.
//
// The snapshot entry is also where a μ derivation hands its work to
// the chain it was planned for. MuExactPooledContext computes the whole
// dependency column δ_·•(target) and parks it in the entry; the next
// chain run on that (version, target) takes it in the same lookup that
// fetches the snapshot, and its oracles answer memo misses by reading
// the column instead of traversing. Later runs, runs with no μ before
// them (fixed steps) and non-bc measures traverse on every memo miss.
// A parked column nobody takes (an exact-only query, a zero-BC target)
// costs 8n bytes until its entry leaves the LRU, so a pool holds at
// most targetSPDCacheSize parked columns.
//
// A betweenness rank job takes nothing from the pool: it runs shared
// Brandes passes on buffers of its own (internal/rank). Rank jobs by
// another measure run chains here like any estimate.
type BufferPool struct {
	pool sync.Pool

	aliasMtx sync.Mutex
	aliases  map[uint64]*rng.Alias // degree alias per graph version

	tspdMtx   sync.Mutex
	tspdByKey map[tspdKey]*list.Element // values are *list.Element of tspdLRU
	tspdLRU   *list.List                // front = most recently used; values *tspdNode

	// columnChains counts chains whose oracle read a parked μ column
	// instead of traversing (one per chain, so a Chains=4 run adds 4).
	columnChains atomic.Uint64
}

type tspdNode struct {
	key tspdKey
	ent *tspdEntry
}

// NewBufferPool returns a pool of chain buffers for g's lineage.
// Buffers are sized to the snapshot they are first checked out on; do
// not share a pool across unrelated graphs (snapshots of one mutation
// lineage are exactly what it is for).
func NewBufferPool(g *graph.Graph) *BufferPool {
	return &BufferPool{
		aliases:   make(map[uint64]*rng.Alias, aliasCacheSize),
		tspdByKey: make(map[tspdKey]*list.Element, targetSPDCacheSize),
		tspdLRU:   list.New(),
	}
}

// Advance drops the cached target snapshots and alias tables of
// versions older than next's (see BufferPool). Call it when next
// becomes the serving snapshot, under the same lock that serializes
// swaps so versions advance monotonically.
func (p *BufferPool) Advance(next *graph.Graph) {
	v := next.Version()
	p.tspdMtx.Lock()
	for el := p.tspdLRU.Front(); el != nil; {
		nextEl := el.Next()
		if node := el.Value.(*tspdNode); node.key.version < v {
			p.tspdLRU.Remove(el)
			delete(p.tspdByKey, node.key)
		}
		el = nextEl
	}
	p.tspdMtx.Unlock()
	p.aliasMtx.Lock()
	for ver := range p.aliases {
		if ver < v {
			delete(p.aliases, ver)
		}
	}
	p.aliasMtx.Unlock()
}

// ColumnChains returns how many chains were served from a dependency
// column a μ derivation parked, instead of traversing on memo misses.
func (p *BufferPool) ColumnChains() uint64 { return p.columnChains.Load() }

// get checks out a buffer set seated on g, reseating the kernels of a
// recycled set that last served another snapshot.
func (p *BufferPool) get(g *graph.Graph) *chainBuffers {
	b, _ := p.pool.Get().(*chainBuffers)
	switch {
	case b == nil:
		return newChainBuffers(g)
	case b.g == g:
		return b
	case b.bfs != nil:
		b.bfs.Reseat(g)
	default:
		b.dij.Reseat(g)
	}
	b.g = g
	return b
}

func (p *BufferPool) put(b *chainBuffers) { p.pool.Put(b) }

// tspdLookup returns the LRU entry for key, inserting (and evicting
// the oldest beyond capacity) under the pool lock. Snapshot builds run
// outside the lock, deduplicated by the entry's once.
func (p *BufferPool) tspdLookup(key tspdKey) *tspdEntry {
	p.tspdMtx.Lock()
	el, ok := p.tspdByKey[key]
	if ok {
		p.tspdLRU.MoveToFront(el)
	} else {
		el = p.tspdLRU.PushFront(&tspdNode{key: key, ent: &tspdEntry{}})
		p.tspdByKey[key] = el
		for p.tspdLRU.Len() > targetSPDCacheSize {
			oldest := p.tspdLRU.Back()
			p.tspdLRU.Remove(oldest)
			delete(p.tspdByKey, oldest.Value.(*tspdNode).key)
		}
	}
	ent := el.Value.(*tspdNode).ent
	p.tspdMtx.Unlock()
	return ent
}

// target returns the LRU entry for (g's version, r) with the snapshot
// of g's identity route built on first request (concurrent first
// requests share one build). The build traverses on a kernel checked
// out of the pool, so a cold target allocates only the snapshot's own
// arrays. A reseated kernel traverses bit-identically to a fresh one
// and the snapshot is indexed by external id, so which kernel took it
// does not show.
func (p *BufferPool) target(g *graph.Graph, r int) *tspdEntry {
	ent := p.tspdLookup(tspdKey{version: g.Version(), target: r})
	ent.once.Do(func() {
		b := p.get(g)
		if b.bfs != nil {
			ent.spd = sssp.NewTargetSPD(b.bfs, r)
		} else {
			ent.wspd = sssp.NewWeightedTargetSPD(b.dij, r)
		}
		p.put(b)
	})
	return ent
}

// chainTarget is the one pool lookup a chain run makes for its target:
// the cached snapshot plus, when a μ derivation parked one, the exact
// dependency column, taken with one atomic swap so only the first run
// after the derivation gets it (every chain of that run shares it).
func (p *BufferPool) chainTarget(g *graph.Graph, r int) targetState {
	ent := p.target(g, r)
	ts := targetState{spd: ent.spd, wspd: ent.wspd}
	if col := ent.col.Swap(nil); col != nil {
		ts.col = *col
	}
	return ts
}

// TargetSnapshot returns the cached BFS target-side snapshot of g for
// target, or nil off the BFS identity route. It is exported for the
// measure oracles (internal/measure): coverage and k-path evaluations
// scan the same target-side distance snapshot the betweenness identity
// oracle reads, so sharing the pool's per-target LRU means a μ
// derivation, a BC chain, and a coverage chain on one target all pay
// for a single target-side BFS between them.
func (p *BufferPool) TargetSnapshot(g *graph.Graph, target int) *sssp.TargetSPD {
	if routeFor(g) != routeBFSIdentity {
		return nil
	}
	return p.target(g, target).spd
}

// degreeAlias returns the degree-proposal alias table for the snapshot
// g, built once per version. Before this cache the table was rebuilt
// from the full degree sequence on every DegreeProposal chain run.
func (p *BufferPool) degreeAlias(g *graph.Graph) *rng.Alias {
	p.aliasMtx.Lock()
	defer p.aliasMtx.Unlock()
	if a, ok := p.aliases[g.Version()]; ok {
		return a
	}
	if len(p.aliases) >= aliasCacheSize {
		clear(p.aliases)
	}
	w := make([]float64, g.N())
	for v := range w {
		w[v] = float64(g.Degree(v))
	}
	a := rng.NewAlias(w)
	p.aliases[g.Version()] = a
	return a
}
