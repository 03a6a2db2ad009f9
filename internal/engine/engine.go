// Package engine is the batch estimation subsystem: one prepared graph
// handle serving many concurrent betweenness-estimation requests with
// shared per-graph state. Where core.EstimateBC re-derives everything
// per call — connectivity validation, the O(nm) exact μ(r) used to plan
// the chain length, and O(n) traversal buffers per chain — an Engine
// pays each cost once:
//
//   - the graph is validated and prepared a single time in New;
//   - μ(r) (and with it the exact BC(r)) is computed at most once per
//     target vertex and reused by every subsequent request, with
//     concurrent first requests deduplicated to one computation;
//   - completed estimates are kept in a bounded LRU keyed by
//     (graph version, vertex, normalized options), so repeated
//     requests are served from cache (duplicates inside one batch are
//     dispatched once);
//   - chain traversal buffers are pooled, so concurrent chains stop
//     re-allocating per run;
//   - the target-side shortest-path snapshot the fast dependency
//     oracle reads (see internal/mcmc's oracle routes) is cached in
//     the pool per target, so the μ computation and every chain —
//     batch requests for the same vertex included — share one
//     target-side BFS;
//   - the dependency column μ(r) is derived from is not computed
//     twice: the μ derivation parks it in the pool, and the first
//     chain run on r afterwards (normally the planned estimate that
//     asked for μ) reads its memo misses from it instead of
//     traversing. A first-touch planned estimate therefore costs one
//     O(nm) column plus a chain of memo hits and array reads. Later
//     chains traverse; Stats.MuColumnChains counts the column-served
//     ones.
//
// # Dynamic graphs
//
// The engine serves a *versioned* graph: SwapGraph atomically installs
// a mutated CSR (built by graph.ApplyEdits) as the new current
// snapshot. Snapshots are immutable — a request captures exactly one
// (graph, pool, μ-cache, version) tuple at entry and runs on it to
// completion, so an estimate in flight across a swap finishes
// bit-identically to a run with no mutation at all, while the next
// request sees the new graph. Result-cache keys carry the version, so
// a stale entry can never answer a post-mutation request. μ-cache
// entries survive a swap when the edit batch provably cannot have
// changed the target's dependency column: the biconnected-component
// retention rule of graph.AffectedByEdits (targets outside every
// edited block's block-cut-tree span keep their exact μ, BC, and
// concentration profile); all other entries are invalidated.
//
// Engine.Estimate serves one target; Engine.EstimateBatch fans a target
// list over a bounded worker pool with per-target seeds derived
// deterministically from one request seed, so batch results are
// reproducible and independent of scheduling (the whole batch runs on
// the one snapshot captured at entry). Engine.Stats exposes the cache,
// version, and in-flight counters; server.go wraps it all in the
// HTTP/JSON surface cmd/bcserve serves.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"bcmh/internal/core"
	"bcmh/internal/graph"
	"bcmh/internal/mcmc"
	"bcmh/internal/measure"
)

// DefaultCacheSize is the default capacity of the completed-estimate
// LRU.
const DefaultCacheSize = 1024

// Config tunes engine construction.
type Config struct {
	// ResultCacheSize bounds the LRU of completed estimates. Zero means
	// DefaultCacheSize; negative disables result caching entirely
	// (μ caching and buffer pooling are always on).
	ResultCacheSize int
	// Lifecycle, when non-nil, bounds the background work the engine
	// spawns on its own behalf — the detached μ computations behind
	// MuStatsContext. Cancelling it aborts those computations within
	// one traversal per worker; internal/store passes each session's
	// lifecycle context here so an evicted graph stops consuming CPU.
	// Nil means context.Background (background work always completes).
	Lifecycle context.Context
	// DegreeRelabel, when true, renumbers the prepared graph's vertices
	// in degree-descending order (graph.RelabelByDegree) before
	// serving, so the public CSR itself — not just the traversal
	// kernels' private layouts — streams hub rows first. The relabeling
	// composes with the largest-component extraction through Mapping(),
	// which keeps translating engine ids back to the caller's original
	// ids; requests address engine ids either way. Estimates on a
	// relabeled engine are the same graph isomorphism-invariantly but
	// not bit-identically (chain targets and seeds land on renumbered
	// vertices), so leave it off where golden reproducibility against
	// an unrelabeled run matters.
	DegreeRelabel bool
}

// snapshot is one immutable serving state: a graph version, the CSR it
// serves, the buffer pool sized to it, and the version's μ-cache.
// Requests capture one snapshot at entry and never re-read the current
// pointer, which is what makes estimation snapshot-isolated across
// SwapGraph.
type snapshot struct {
	g       *graph.Graph
	pool    *mcmc.BufferPool
	version uint64

	// columnBase is the ColumnChains total of the pools SwapGraph
	// replaced before this snapshot's pool, so Stats keeps counting
	// across full rebuilds. Chains that start on a replaced pool after
	// its swap are not counted.
	columnBase uint64

	// μ-cache: one entry per requested (measure, target) pair, computed
	// once in a detached goroutine so concurrent first requests share
	// the exact-column evaluation and every waiter stays cancellable.
	// BC entries (the zero-spec key) may be carried over from the
	// previous snapshot when retention proves them unaffected.
	muMtx sync.Mutex
	mu    map[muKey]*muEntry
}

// muKey identifies one μ-cache entry: the measure and the target
// vertex. The zero-spec key is plain BC, so pre-measure callers hit
// exactly the entries they always did.
type muKey struct {
	spec   measure.Spec
	vertex int
}

// Engine owns the shared state for estimating betweenness on one
// prepared graph lineage. Safe for concurrent use.
type Engine struct {
	mapping   []int
	lifecycle context.Context

	snap    atomic.Pointer[snapshot]
	swapMtx sync.Mutex // serializes SwapGraph/StreamSwap/InstallCompacted

	// tracker amortizes affected-set computation across StreamSwap
	// batches (guarded by swapMtx; nil until the first stream batch,
	// reset by a full-CSR SwapGraph).
	tracker *graph.AffectedTracker

	results *lruCache

	muHits, muMisses         atomic.Uint64
	resultHits, resultMisses atomic.Uint64
	inFlight                 atomic.Int64
	estimates                atomic.Uint64
	batches                  atomic.Uint64
	swaps                    atomic.Uint64
	muRetained               atomic.Uint64
	muInvalidated            atomic.Uint64
}

// muEntry is one target's μ computation: done closes when stats/err are
// final. The computation runs detached from any request so it always
// completes and warms the cache, while every requester — the initiator
// included — waits cancellably.
type muEntry struct {
	done  chan struct{}
	stats mcmc.MuStats
	err   error
}

// New prepares g for estimation (validating it and extracting the
// largest connected component if necessary, via core.Prepare) and
// returns an engine over the prepared graph with default configuration.
func New(g *graph.Graph) (*Engine, error) {
	return NewWithConfig(g, Config{})
}

// NewWithConfig is New with explicit engine configuration.
func NewWithConfig(g *graph.Graph, cfg Config) (*Engine, error) {
	prepared, mapping, err := core.Prepare(g)
	if err != nil {
		return nil, err
	}
	if cfg.DegreeRelabel {
		rel, newToOld, rerr := graph.RelabelByDegree(prepared)
		if rerr != nil {
			return nil, rerr
		}
		if mapping == nil {
			mapping = newToOld
		} else {
			composed := make([]int, len(newToOld))
			for v, p := range newToOld {
				composed[v] = mapping[p]
			}
			mapping = composed
		}
		prepared = rel
	}
	size := cfg.ResultCacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	lifecycle := cfg.Lifecycle
	if lifecycle == nil {
		lifecycle = context.Background()
	}
	e := &Engine{
		mapping:   mapping,
		lifecycle: lifecycle,
		results:   newLRUCache(size),
	}
	e.snap.Store(&snapshot{
		g:       prepared,
		pool:    mcmc.NewBufferPool(prepared),
		version: prepared.Version(),
		mu:      make(map[muKey]*muEntry),
	})
	return e, nil
}

// current returns the serving snapshot. Callers that need consistency
// across several reads (graph + pool + μ-cache) must hold one snapshot
// rather than calling the individual accessors repeatedly.
func (e *Engine) current() *snapshot { return e.snap.Load() }

// Graph returns the prepared graph the engine currently estimates on.
func (e *Engine) Graph() *graph.Graph { return e.current().g }

// Version returns the graph version the engine currently serves.
func (e *Engine) Version() uint64 { return e.current().version }

// Mapping returns the prepared-vertex → original-vertex mapping from
// core.Prepare, or nil when the input graph was usable as-is.
func (e *Engine) Mapping() []int { return e.mapping }

// Pool returns the current snapshot's chain-buffer pool. A pool is
// only valid for the graph of the snapshot it came from — callers that
// run chains beside the engine's own traffic must take Graph and Pool
// from one Snapshot call, never from separate Graph()/Pool() reads
// that a concurrent SwapGraph could split across versions.
func (e *Engine) Pool() *mcmc.BufferPool { return e.current().pool }

// Snapshot is an exported consistent view of one serving state.
type Snapshot struct {
	// Graph is the snapshot's immutable CSR.
	Graph *graph.Graph
	// Pool is the buffer pool sized to (and caching target SPDs of)
	// exactly that graph.
	Pool *mcmc.BufferPool
	// Version is the snapshot's graph version.
	Version uint64
}

// Snapshot returns the current (graph, pool, version) tuple,
// guaranteed mutually consistent. Work started on a snapshot (e.g. a
// ranking job) keeps running on it bit-identically across any number
// of subsequent SwapGraph calls.
func (e *Engine) Snapshot() Snapshot {
	sn := e.current()
	return Snapshot{Graph: sn.g, Pool: sn.pool, Version: sn.version}
}

// ErrUnknownVertex is wrapped by every "no such vertex" failure —
// out-of-range engine ids and labels absent from the serving table —
// so the HTTP layer can map them to 404 with errors.Is.
var ErrUnknownVertex = errors.New("unknown vertex")

// ErrVersionRegression is wrapped by SwapGraph when the candidate
// graph's version does not advance past the serving snapshot's.
var ErrVersionRegression = errors.New("graph version must advance")

func (sn *snapshot) checkVertex(r int) error {
	if r < 0 || r >= sn.g.N() {
		return fmt.Errorf("engine: vertex %d out of range [0,%d): %w", r, sn.g.N(), ErrUnknownVertex)
	}
	return nil
}

// SwapReport describes one SwapGraph outcome.
type SwapReport struct {
	// Version is the version now being served.
	Version uint64
	// Affected is the number of vertices inside the edit's affected
	// region (see graph.AffectedByEdits).
	Affected int
	// MuRetained and MuInvalidated count μ-cache entries carried over
	// versus dropped.
	MuRetained, MuInvalidated int
}

// SwapGraph atomically replaces the serving graph with next — a
// mutated CSR produced by graph.ApplyEdits on the current one — and
// edited is the applied batch's endpoint pairs (EditReport.Pairs).
//
// Requirements: next must be undirected, connected, have the same
// vertex count as the current graph (vertex ids are stable across a
// mutation lineage; that stability is what lets caches and label
// tables survive), and carry a strictly greater Version.
//
// In-flight estimates are untouched: they hold the previous snapshot
// and complete on it bit-identically. The result LRU needs no sweep —
// its keys carry the version, so old entries can never answer
// new-version requests and simply age out. μ-cache entries (including
// ones still being computed) are carried into the new snapshot exactly
// when the target lies outside the edit's affected region, where the
// dependency column is provably unchanged; retained exact values are
// mathematically exact for the new graph, though not necessarily
// bit-identical to what a cold recomputation on the new CSR would
// produce (shortest-path counts may regroup floating-point sums).
// Passing nil edited pairs invalidates every entry — the safe call
// when the mutation's provenance is unknown.
func (e *Engine) SwapGraph(next *graph.Graph, edited [][2]int) (SwapReport, error) {
	if next == nil {
		return SwapReport{}, fmt.Errorf("engine: SwapGraph on nil graph")
	}
	if next.Directed() {
		return SwapReport{}, fmt.Errorf("engine: SwapGraph requires an undirected graph")
	}
	e.swapMtx.Lock()
	defer e.swapMtx.Unlock()
	cur := e.current()
	if next.N() != cur.g.N() {
		return SwapReport{}, fmt.Errorf("engine: SwapGraph changes the vertex count (%d -> %d); mutations must keep vertex ids stable", cur.g.N(), next.N())
	}
	if next.Version() <= cur.version {
		return SwapReport{}, fmt.Errorf("engine: %w (serving %d, offered %d)", ErrVersionRegression, cur.version, next.Version())
	}
	if !graph.IsConnected(next) {
		return SwapReport{}, fmt.Errorf("engine: SwapGraph rejects a disconnected graph (the estimators require connectivity)")
	}
	affected := graph.AffectedByEdits(next, edited)
	nAffected := 0
	for _, a := range affected {
		if a {
			nAffected++
		}
	}
	// An overlay descendant keeps the current pool: kernels reseat in
	// O(overlay) and warm chain memos survive where the affected set
	// allows. A fresh CSR gets a fresh pool (old buffers would rebuild on
	// every checkout anyway) and invalidates the stream tracker's forest
	// baseline.
	pool, columnBase := cur.pool, cur.columnBase
	if graph.SameStorage(cur.g, next) {
		pool.Advance(next, affected)
		if e.tracker != nil {
			e.tracker.Absorb(affected)
		}
	} else {
		columnBase += pool.ColumnChains()
		pool = mcmc.NewBufferPool(next)
		e.tracker = nil
	}
	fresh := &snapshot{
		g:          next,
		pool:       pool,
		version:    next.Version(),
		columnBase: columnBase,
		mu:         make(map[muKey]*muEntry),
	}
	report := SwapReport{Version: next.Version(), Affected: nAffected}
	cur.muMtx.Lock()
	for k, ent := range cur.mu {
		// The block-cut retention proof covers the bc dependency column;
		// non-bc profiles (coverage/kpath share its shortest-path
		// structure, rwbc's currents are global) are conservatively
		// recomputed after any mutation.
		if !k.spec.IsBC() || affected[k.vertex] {
			report.MuInvalidated++
			continue
		}
		// Unaffected bc target: the entry (finished or still computing
		// on the old snapshot, which stays immutable) is exact for the
		// new graph too.
		fresh.mu[k] = ent
		report.MuRetained++
	}
	cur.muMtx.Unlock()
	e.snap.Store(fresh)
	e.swaps.Add(1)
	e.muRetained.Add(uint64(report.MuRetained))
	e.muInvalidated.Add(uint64(report.MuInvalidated))
	return report, nil
}

// StreamSwap is SwapGraph's streaming fast path: next must be an
// overlay descendant of the serving graph (graph.ApplyEditsOverlay on
// it — same backing storage), and pairs the batch's endpoint pairs.
// Instead of the full O(n+m) swap pipeline it runs in O(batch + caches):
// the affected set comes from an amortized block-forest tracker rather
// than a fresh decomposition, the connectivity check is skipped (the
// caller vets removals with graph.PairConnected before applying them —
// an overlay edit batch that passes cannot disconnect the graph, since
// additions never disconnect and vetted removals by definition leave
// their endpoints connected), and the buffer pool is the same object
// carried forward, so warm chain memos and kernels survive per the
// carry rules in internal/mcmc. Nil pairs mark every vertex affected.
func (e *Engine) StreamSwap(next *graph.Graph, pairs [][2]int) (SwapReport, error) {
	if next == nil {
		return SwapReport{}, fmt.Errorf("engine: StreamSwap on nil graph")
	}
	if next.Directed() {
		return SwapReport{}, fmt.Errorf("engine: StreamSwap requires an undirected graph")
	}
	e.swapMtx.Lock()
	defer e.swapMtx.Unlock()
	cur := e.current()
	if !graph.SameStorage(cur.g, next) {
		return SwapReport{}, fmt.Errorf("engine: StreamSwap requires an overlay descendant of the serving graph (use SwapGraph for a rebuilt CSR)")
	}
	if next.Version() <= cur.version {
		return SwapReport{}, fmt.Errorf("engine: %w (serving %d, offered %d)", ErrVersionRegression, cur.version, next.Version())
	}
	if e.tracker == nil {
		e.tracker = graph.NewAffectedTracker(cur.g)
	}
	affected := e.tracker.Affected(next, pairs)
	nAffected := 0
	for _, a := range affected {
		if a {
			nAffected++
		}
	}
	cur.pool.Advance(next, affected)
	fresh := &snapshot{
		g:          next,
		pool:       cur.pool,
		version:    next.Version(),
		columnBase: cur.columnBase,
		mu:         make(map[muKey]*muEntry),
	}
	report := SwapReport{Version: next.Version(), Affected: nAffected}
	cur.muMtx.Lock()
	for k, ent := range cur.mu {
		// Same retention rule as SwapGraph: bc-only (see there).
		if !k.spec.IsBC() || affected[k.vertex] {
			report.MuInvalidated++
			continue
		}
		fresh.mu[k] = ent
		report.MuRetained++
	}
	cur.muMtx.Unlock()
	e.snap.Store(fresh)
	e.swaps.Add(1)
	e.muRetained.Add(uint64(report.MuRetained))
	e.muInvalidated.Add(uint64(report.MuInvalidated))
	return report, nil
}

// InstallCompacted replaces the serving graph with an equivalent
// compacted representation of the *same version* — the tail end of
// background overlay compaction (graph.Compact + graph.RebaseCompacted
// run off-lock, then the result lands here). Nothing logical changes:
// the version, the μ-cache, and the buffer pool all carry over intact
// (pool caches are version-keyed, and Compact preserves adjacency
// order, so even cached target snapshots stay bit-identical). The
// stream tracker survives too — its soundness ledger tracks the
// logical graph, not its storage. In-flight estimates keep their old
// snapshot; later stream batches chain off the compacted storage.
func (e *Engine) InstallCompacted(next *graph.Graph) error {
	if next == nil {
		return fmt.Errorf("engine: InstallCompacted on nil graph")
	}
	e.swapMtx.Lock()
	defer e.swapMtx.Unlock()
	cur := e.current()
	if next.Version() != cur.version {
		return fmt.Errorf("engine: InstallCompacted must keep the serving version (serving %d, offered %d)", cur.version, next.Version())
	}
	if next.N() != cur.g.N() || next.Directed() != cur.g.Directed() {
		return fmt.Errorf("engine: InstallCompacted changes the graph shape")
	}
	fresh := &snapshot{
		g:          next,
		pool:       cur.pool,
		version:    cur.version,
		columnBase: cur.columnBase,
		mu:         make(map[muKey]*muEntry),
	}
	cur.muMtx.Lock()
	for r, ent := range cur.mu {
		fresh.mu[r] = ent
	}
	cur.muMtx.Unlock()
	e.snap.Store(fresh)
	return nil
}

// MuStats returns the exact concentration profile μ(r) (and with it the
// exact BC(r)) of target r, computing it at most once per graph
// version (less, when retention carries entries across versions).
// Concurrent first calls for the same target block on a single
// computation; every later call is a cache hit.
func (e *Engine) MuStats(r int) (mcmc.MuStats, error) {
	return e.MuStatsContext(context.Background(), r)
}

// MuStatsContext is MuStats under a context. The O(nm) computation
// itself is shared across requesters and runs to completion in a
// detached goroutine (abandoned work still warms the cache), but a
// requester whose ctx is cancelled stops waiting and returns ctx's
// error immediately — so exact-BC and planned-steps requests are
// cancellable even while μ is being derived.
func (e *Engine) MuStatsContext(ctx context.Context, r int) (mcmc.MuStats, error) {
	return e.muStatsOn(ctx, e.current(), measure.Spec{}, r)
}

// MeasureStatsContext is MuStatsContext for an arbitrary measure: the
// exact concentration profile of spec at r (MuStats.BC holds the exact
// value under the shared Σd/(n(n−1)) normalisation), cached per
// (measure, vertex) with the same single-computation semantics. The
// zero spec is exactly MuStatsContext.
func (e *Engine) MeasureStatsContext(ctx context.Context, spec measure.Spec, r int) (mcmc.MuStats, error) {
	return e.muStatsOn(ctx, e.current(), spec, r)
}

// muStatsOn is MeasureStatsContext pinned to one snapshot.
func (e *Engine) muStatsOn(ctx context.Context, sn *snapshot, spec measure.Spec, r int) (mcmc.MuStats, error) {
	if err := sn.checkVertex(r); err != nil {
		return mcmc.MuStats{}, err
	}
	if err := spec.Supports(sn.g); err != nil {
		return mcmc.MuStats{}, err
	}
	key := muKey{spec: spec, vertex: r}
	sn.muMtx.Lock()
	ent, ok := sn.mu[key]
	if !ok {
		ent = &muEntry{done: make(chan struct{})}
		sn.mu[key] = ent
		go func() {
			// Pooled: for bc (and the shortest-path measures sharing its
			// snapshot cache) the target-side BFS this derives the column
			// from is cached in the buffer pool, where the same target's
			// chain oracles will find it (and vice versa). Bounded by the
			// engine lifecycle, not the requester's ctx: abandoned
			// requests still warm the cache, but an engine whose session
			// died stops computing.
			ent.stats, ent.err = measure.Stats(e.lifecycle, sn.g, spec, r, sn.pool)
			close(ent.done)
		}()
	}
	sn.muMtx.Unlock()
	if ok {
		e.muHits.Add(1)
	} else {
		e.muMisses.Add(1)
	}
	select {
	case <-ent.done:
		return ent.stats, ent.err
	case <-ctx.Done():
		return mcmc.MuStats{}, ctx.Err()
	}
}

// ExactBCOf returns the exact betweenness of r, served from the μ-cache
// (MuExact's dependency column yields BC(r) as a by-product), so
// repeated exact queries for one vertex cost one O(nm) evaluation
// total. This is the engine's /exact path.
func (e *Engine) ExactBCOf(r int) (float64, error) {
	return e.ExactBCOfContext(context.Background(), r)
}

// ExactBCOfContext is ExactBCOf under a context (see MuStatsContext for
// the cancellation semantics).
func (e *Engine) ExactBCOfContext(ctx context.Context, r int) (float64, error) {
	ms, err := e.MuStatsContext(ctx, r)
	if err != nil {
		return 0, err
	}
	return ms.BC, nil
}

// ExactMeasureOfContext returns the exact value of spec's centrality at
// r, served from the (measure, vertex) μ-cache exactly like
// ExactBCOfContext serves bc — the exact column derived for planning
// yields the value as a by-product, so repeated exact queries cost one
// evaluation total.
func (e *Engine) ExactMeasureOfContext(ctx context.Context, spec measure.Spec, r int) (float64, error) {
	ms, err := e.MeasureStatsContext(ctx, spec, r)
	if err != nil {
		return 0, err
	}
	return ms.BC, nil
}

// Estimate estimates the betweenness of vertex r under opts, sharing
// the engine's μ-cache, result cache, and buffer pool. Results are
// bit-identical to core.EstimateBC with the same options and seed on
// the snapshot's graph.
func (e *Engine) Estimate(r int, opts core.Options) (core.Estimate, error) {
	return e.EstimateContext(context.Background(), r, opts)
}

// EstimateContext is Estimate under a context: a cancelled ctx aborts
// the in-flight chains promptly with ctx's error instead of letting
// them run to their full step budget (the serving layer passes each
// request's context here, so a disconnected client or an evicted
// session stops consuming CPU). Cache lookups are unaffected — a hit is
// served even under a cancelled context — and aborted runs are never
// cached. The request runs entirely on the snapshot current at entry:
// a SwapGraph mid-estimate neither perturbs nor aborts it.
func (e *Engine) EstimateContext(ctx context.Context, r int, opts core.Options) (core.Estimate, error) {
	return e.estimateOn(ctx, e.current(), measure.Spec{}, r, opts)
}

// EstimateMeasureContext is EstimateContext for an arbitrary measure:
// identical caching, planning, snapshot-isolation, and cancellation
// semantics, with the result LRU and μ-cache keyed by (measure,
// vertex) so measures never answer each other's requests. The zero
// spec routes through the bc fast path bit-identically to
// EstimateContext.
func (e *Engine) EstimateMeasureContext(ctx context.Context, spec measure.Spec, r int, opts core.Options) (core.Estimate, error) {
	return e.estimateOn(ctx, e.current(), spec, r, opts)
}

// estimateOn is EstimateMeasureContext pinned to one snapshot.
func (e *Engine) estimateOn(ctx context.Context, sn *snapshot, spec measure.Spec, r int, opts core.Options) (core.Estimate, error) {
	if err := sn.checkVertex(r); err != nil {
		return core.Estimate{}, err
	}
	if err := spec.Supports(sn.g); err != nil {
		return core.Estimate{}, err
	}
	o := opts.Normalized()
	key := resultKey{version: sn.version, vertex: r, spec: spec, opts: o}
	if est, ok := e.results.get(key); ok {
		e.resultHits.Add(1)
		return est, nil
	}
	e.resultMisses.Add(1)
	e.inFlight.Add(1)
	defer e.inFlight.Add(-1)
	mu := o.MuBound
	if !o.Adaptive && o.Steps <= 0 && mu <= 0 {
		ms, err := e.muStatsOn(ctx, sn, spec, r)
		if err != nil {
			return core.Estimate{}, err
		}
		mu = ms.Mu
	}
	est, err := measure.EstimatePrepared(ctx, sn.g, spec, r, o, mu, sn.pool)
	if err != nil {
		return core.Estimate{}, err
	}
	e.estimates.Add(1)
	e.results.add(key, est)
	return est, nil
}

// Stats is a point-in-time snapshot of the engine's shared-state
// counters (served by bcserve's GET /stats).
type Stats struct {
	// Version is the graph version currently being served; Swaps counts
	// completed SwapGraph calls.
	Version uint64 `json:"version"`
	Swaps   uint64 `json:"swaps"`
	// MuHits and MuMisses count μ-cache lookups; a miss is one O(nm)
	// MuExact computation, a hit reuses (or waits on) a prior one.
	MuHits   uint64 `json:"mu_hits"`
	MuMisses uint64 `json:"mu_misses"`
	// MuCached is the number of targets with a cached μ profile on the
	// current version. MuRetained/MuInvalidated count entries carried
	// across swaps versus dropped by them, cumulatively.
	MuCached      int    `json:"mu_cached"`
	MuRetained    uint64 `json:"mu_retained"`
	MuInvalidated uint64 `json:"mu_invalidated"`
	// MuColumnChains counts chains that read the dependency column
	// their target's μ derivation computed instead of traversing on
	// memo misses (see mcmc.BufferPool). Evals and cache hits are
	// counted as for a traversing chain, so this is where the saving
	// shows.
	MuColumnChains uint64 `json:"mu_column_chains"`
	// ResultHits and ResultMisses count completed-estimate LRU lookups.
	ResultHits   uint64 `json:"result_hits"`
	ResultMisses uint64 `json:"result_misses"`
	// ResultCached is the number of estimates currently in the LRU
	// (entries of superseded versions age out under capacity pressure).
	ResultCached int `json:"result_cached"`
	// InFlight is the number of estimations running right now.
	InFlight int64 `json:"in_flight"`
	// Estimates counts completed chain estimations (cache hits
	// excluded); Batches counts EstimateBatch requests.
	Estimates uint64 `json:"estimates"`
	Batches   uint64 `json:"batches"`
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	sn := e.current()
	sn.muMtx.Lock()
	muCached := len(sn.mu)
	sn.muMtx.Unlock()
	return Stats{
		Version:        sn.version,
		Swaps:          e.swaps.Load(),
		MuHits:         e.muHits.Load(),
		MuMisses:       e.muMisses.Load(),
		MuCached:       muCached,
		MuRetained:     e.muRetained.Load(),
		MuInvalidated:  e.muInvalidated.Load(),
		MuColumnChains: sn.columnBase + sn.pool.ColumnChains(),
		ResultHits:     e.resultHits.Load(),
		ResultMisses:   e.resultMisses.Load(),
		ResultCached:   e.results.len(),
		InFlight:       e.inFlight.Load(),
		Estimates:      e.estimates.Load(),
		Batches:        e.batches.Load(),
	}
}
