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
// an overlay descendant of the serving graph (graph.ApplyEditsOverlay
// on it) as the new current snapshot, in O(batch) plus cache
// bookkeeping. Snapshots are immutable — a request captures exactly
// one (graph, pool, μ-cache, version) tuple at entry and runs on it to
// completion, so an estimate in flight across a swap finishes
// bit-identically to a run with no mutation at all, while the next
// request sees the new graph. Result-cache keys carry the version, so
// a stale entry can never answer a post-mutation request. One buffer
// pool serves the whole lineage: kernels reseat in O(overlay), while
// every chain starts its memo afresh, so its evals and cache hits are
// those of a cold run. μ-cache entries survive a swap when the batch
// cannot have affected their target: by the biconnected-component
// argument in internal/graph's blocks.go, targets outside every edited
// block's block-cut-tree span keep their exact μ, BC, and
// concentration profile. An amortized block-forest tracker
// (graph.AffectedTracker) answers which targets those are; it may be
// coarser than the exact rule but is never unsound. All other entries
// are invalidated. InstallCompacted swaps in the background-folded CSR
// of the serving version without changing anything logical.
//
// There is one exported method per job. EstimateContext serves one
// target. MuStatsContext returns a target's exact profile, whose BC
// field is the exact value. EstimateBatchContext fans a target list
// over a bounded worker pool with per-target seeds derived
// deterministically from one request seed, so batch results are
// reproducible and independent of scheduling (the whole batch runs on
// the one snapshot captured at entry). Each is the bc case of a
// snapshot-pinned, measure-generic path (estimateOn, muStatsOn), which
// the HTTP handlers in server.go call directly. Engine.Stats exposes
// the cache, version, and in-flight counters; server.go wraps it all
// in the HTTP/JSON surface internal/store mounts per session.
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
}

// snapshot is one immutable serving state: a graph version, the CSR it
// serves, the lineage's buffer pool, and the version's μ-cache.
// Requests capture one snapshot at entry and never re-read the current
// pointer, which is what makes estimation snapshot-isolated across
// SwapGraph.
type snapshot struct {
	g       *graph.Graph
	pool    *mcmc.BufferPool
	version uint64

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
	swapMtx sync.Mutex // serializes SwapGraph/InstallCompacted

	// tracker amortizes affected-set computation across SwapGraph
	// batches (guarded by swapMtx; nil until the first swap).
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

// Pool returns the chain-buffer pool of the engine's graph lineage.
// Callers that run chains beside the engine's own traffic must still
// take Graph and Pool from one Snapshot call, never from separate
// Graph()/Pool() reads that a concurrent SwapGraph could split across
// versions.
func (e *Engine) Pool() *mcmc.BufferPool { return e.current().pool }

// Snapshot is an exported consistent view of one serving state.
type Snapshot struct {
	// Graph is the snapshot's immutable CSR.
	Graph *graph.Graph
	// Pool is the lineage's buffer pool; it serves Graph and caches
	// its target SPDs by version.
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
	// region, as the tracker bounds it (see graph.AffectedTracker).
	Affected int
	// MuRetained and MuInvalidated count μ-cache entries carried over
	// versus dropped.
	MuRetained, MuInvalidated int
}

// SwapGraph atomically replaces the serving graph with next, an
// overlay descendant of it (graph.ApplyEditsOverlay on the serving
// graph, sharing its backing storage), with a strictly greater
// Version; pairs are the batch's endpoint pairs (EditReport.Pairs).
// It runs in O(batch + caches):
//
//   - the affected region comes from an amortized block-forest
//     tracker (graph.AffectedTracker), a sound overapproximation of the
//     exact block rule that can be coarser after many edits in one
//     region;
//   - connectivity is the caller's contract, not checked here: the
//     store vets every removed pair with graph.PairConnected before the
//     batch is logged (additions never disconnect, and removals whose
//     endpoints stay connected leave the graph connected);
//   - the buffer pool is carried forward, so kernels reseat in
//     O(overlay); pool.Advance drops its cached target snapshots and
//     alias tables of older versions. Chain memos do not carry: every
//     chain starts a fresh one.
//
// In-flight estimates are untouched: they hold the previous snapshot
// and complete on it bit-identically. The result LRU needs no sweep —
// its keys carry the version, so old entries can never answer
// new-version requests and simply age out. μ-cache entries (including
// ones still being computed) are carried into the new snapshot exactly
// when the target lies outside the affected region, where the
// dependency column is provably unchanged; retained exact values are
// mathematically exact for the new graph, though not necessarily
// bit-identical to what a cold recomputation would produce
// (shortest-path counts may regroup floating-point sums). Nil pairs
// mark every vertex affected — the safe call when the mutation's
// provenance is unknown.
func (e *Engine) SwapGraph(next *graph.Graph, pairs [][2]int) (SwapReport, error) {
	if next == nil {
		return SwapReport{}, fmt.Errorf("engine: SwapGraph on nil graph")
	}
	e.swapMtx.Lock()
	defer e.swapMtx.Unlock()
	cur := e.current()
	if !graph.SameStorage(cur.g, next) {
		return SwapReport{}, fmt.Errorf("engine: SwapGraph requires an overlay descendant of the serving graph (graph.ApplyEditsOverlay on it)")
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
	cur.pool.Advance(next)
	fresh := &snapshot{
		g:       next,
		pool:    cur.pool,
		version: next.Version(),
		mu:      make(map[muKey]*muEntry),
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

// InstallCompacted replaces the serving graph with an equivalent
// compacted representation of the *same version* — the tail end of
// background overlay compaction (graph.Compact + graph.RebaseCompacted
// run off-lock, then the result lands here). Nothing logical changes:
// the version, the μ-cache, and the buffer pool all carry over intact
// (pool caches are version-keyed, and Compact preserves adjacency
// order, so even cached target snapshots stay bit-identical). The
// affected-set tracker survives too — its soundness ledger tracks the
// logical graph, not its storage. In-flight estimates keep their old
// snapshot; later edit batches chain off the compacted storage.
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
		g:       next,
		pool:    cur.pool,
		version: cur.version,
		mu:      make(map[muKey]*muEntry),
	}
	cur.muMtx.Lock()
	for r, ent := range cur.mu {
		fresh.mu[r] = ent
	}
	cur.muMtx.Unlock()
	e.snap.Store(fresh)
	return nil
}

// MuStatsContext returns the exact concentration profile μ(r) (and with
// it the exact BC(r)) of target r on the serving snapshot. It is the bc
// case of muStatsOn.
func (e *Engine) MuStatsContext(ctx context.Context, r int) (mcmc.MuStats, error) {
	return e.muStatsOn(ctx, e.current(), measure.Spec{}, r)
}

// muStatsOn returns the exact concentration profile of spec at r on
// snapshot sn (MuStats.BC holds the exact value under the shared
// Σd/(n(n−1)) normalisation; it is what /exact serves). It is computed
// at most once per (measure, vertex) and snapshot (less, when
// retention carries entries across versions). The O(nm) computation is
// shared across requesters and runs to completion in a detached
// goroutine (abandoned work still warms the cache), but a requester
// whose ctx is cancelled stops waiting and returns ctx's error
// immediately — so exact and planned-steps requests are cancellable
// even while μ is being derived.
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

// EstimateContext estimates the betweenness of vertex r under opts on
// the serving snapshot. It is the bc case of estimateOn.
func (e *Engine) EstimateContext(ctx context.Context, r int, opts core.Options) (core.Estimate, error) {
	return e.estimateOn(ctx, e.current(), measure.Spec{}, r, opts)
}

// estimateOn estimates spec's centrality at r under opts on snapshot
// sn, sharing the engine's μ-cache, result cache, and buffer pool.
// Bc results are bit-identical to core.EstimateBC with the same
// options and seed on the snapshot's graph. A cancelled ctx aborts the
// in-flight chains promptly with ctx's error instead of letting them
// run to their full step budget (the serving layer passes each
// request's context here, so a disconnected client or an evicted
// session stops consuming CPU). Cache lookups are unaffected — a hit
// is served even under a cancelled context — and aborted runs are
// never cached. The result LRU and μ-cache are keyed by (measure,
// vertex), so measures never answer each other's requests. A SwapGraph
// mid-estimate neither perturbs nor aborts the run.
func (e *Engine) estimateOn(ctx context.Context, sn *snapshot, spec measure.Spec, r int, opts core.Options) (core.Estimate, error) {
	if err := sn.checkVertex(r); err != nil {
		return core.Estimate{}, err
	}
	if err := spec.Supports(sn.g); err != nil {
		return core.Estimate{}, err
	}
	if err := opts.Validate(); err != nil {
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
	// SourceRowsBuilt counts the shortest-path rows rank jobs built into
	// the row tables they share per snapshot (at most one per vertex per
	// table), and SourceRowEvals the chain evaluations those tables
	// answered with a row scan instead of a traversal (see
	// mcmc.SourceRows).
	SourceRowsBuilt uint64 `json:"source_rows_built"`
	SourceRowEvals  uint64 `json:"source_row_evals"`
	// ResultHits and ResultMisses count completed-estimate LRU lookups.
	ResultHits   uint64 `json:"result_hits"`
	ResultMisses uint64 `json:"result_misses"`
	// ResultCached is the number of estimates currently in the LRU
	// (entries of superseded versions age out under capacity pressure).
	ResultCached int `json:"result_cached"`
	// InFlight is the number of estimations running right now.
	InFlight int64 `json:"in_flight"`
	// Estimates counts completed chain estimations (cache hits
	// excluded); Batches counts EstimateBatchContext requests.
	Estimates uint64 `json:"estimates"`
	Batches   uint64 `json:"batches"`
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	sn := e.current()
	sn.muMtx.Lock()
	muCached := len(sn.mu)
	sn.muMtx.Unlock()
	rowsBuilt, rowEvals := sn.pool.SourceRowStats()
	return Stats{
		Version:         sn.version,
		Swaps:           e.swaps.Load(),
		MuHits:          e.muHits.Load(),
		MuMisses:        e.muMisses.Load(),
		MuCached:        muCached,
		MuRetained:      e.muRetained.Load(),
		MuInvalidated:   e.muInvalidated.Load(),
		MuColumnChains:  sn.pool.ColumnChains(),
		SourceRowsBuilt: rowsBuilt,
		SourceRowEvals:  rowEvals,
		ResultHits:      e.resultHits.Load(),
		ResultMisses:    e.resultMisses.Load(),
		ResultCached:    e.results.len(),
		InFlight:        e.inFlight.Load(),
		Estimates:       e.estimates.Load(),
		Batches:         e.batches.Load(),
	}
}
