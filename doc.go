// Package bcmh reproduces "Metropolis-Hastings Algorithms for
// Estimating Betweenness Centrality in Large Networks" (Chehreghani,
// Abdessalem, Bifet; EDBT 2019 / arXiv:1704.07351) and grows it into a
// serving system.
//
// # Layout
//
// The library lives under internal/:
//
//   - internal/core — the validated single-request facade
//     (EstimateBC, EstimateRelative, ExactBC, Prepare).
//   - internal/mcmc — the paper's samplers: the single-space MH chain
//     (§4.2) behind one runner, mcmc.Run, which runs one chain or pools
//     several of any Source (mcmc.BC or a measure's mcmc.Stat), the
//     joint-space relative sampler (§4.3), the μ(r) machinery of
//     Theorems 1–2, and the Eq. 14/27 planner.
//   - internal/measure — the first-class Measure abstraction: a
//     measure.Spec names a per-vertex statistic d_v(r) sharing
//     betweenness's normalisation (Σ_v d_v(r) = n(n−1)·Value(r)), so
//     μ planning and every estimator apply unchanged. Ships bc
//     (default, sampled as mcmc.BC on the identity oracles), coverage
//     and k-path centrality on the BFS kernels, and random-walk
//     (current-flow) betweenness on CG Laplacian solves;
//     measure.Estimate / ExactColumn / Stats mirror the core entry
//     points.
//   - internal/linalg — the graph-Laplacian kernel behind rwbc:
//     Jacobi-preconditioned conjugate gradient with sum-zero
//     projection, deterministic to the last bit for fixed inputs.
//   - internal/engine — the batch estimation subsystem: one prepared
//     graph handle serving concurrent requests with a shared μ-cache,
//     a bounded LRU of completed estimates, pooled traversal buffers,
//     and a deterministic batch worker pool; serves a *versioned*
//     graph (SwapGraph installs each edit batch's overlay descendant
//     atomically, with requests snapshot-isolated on capture);
//     includes the single-graph HTTP/JSON handlers the store mounts
//     per session.
//   - internal/store — the multi-tenant graph store: named sessions
//     (each an engine plus label table and lifecycle context) created
//     from uploaded edge lists, listed, and deleted over the /graphs
//     management API, under a bounded memory budget with LRU eviction
//     of idle sessions, creation singleflight, and session-coupled
//     request contexts. cmd/bcserve mounts store.NewServerWithOptions.
//   - internal/rank — the whole-graph top-k workload: a
//     progressive-refinement ranker that samples every candidate,
//     prunes candidates whose confidence interval cannot reach the
//     top-k boundary, and keeps sampling the survivors round over
//     round. A betweenness ranking shares its samples: it takes the
//     sources of a seeded permutation in growing batches, and one
//     Brandes pass per source (a fast kernel's traversal and pull-form
//     backward pass, brandes.NewPass) serves every candidate at once;
//     once all n sources are seen the ranking is exact. Other
//     measures run short fixed-step MH chains per candidate on buffers
//     from the engine's pool.
//   - internal/jobs — the async-job manager behind minutes-scale
//     computations: job ids, live progress snapshots, retained
//     results, bounded concurrency, and cancellation coupled to the
//     owning session's lifecycle context.
//   - internal/brandes, internal/sssp, internal/graph, internal/rng,
//     internal/stats, internal/sampler — the exact-algorithm, traversal,
//     graph, randomness, statistics, and baseline-sampler substrates.
//   - internal/exp — the table/figure reproduction harness; print the
//     tables with `go run ./cmd/bcbench`.
//
// # Dependency-oracle fast path
//
// The samplers' hot path — one δ_v•(r) evaluation per MH step — is
// served by one of two routes, selected automatically. Unweighted
// graphs use the identity-based fast oracle (a cached target-side SPD
// plus one specialized epoch-reset BFS and an O(n) scan per
// evaluation; sssp.BFS + brandes.DependencyOnTargetIdentity).
// Weighted graphs take the same identity shape on a specialized
// Dijkstra kernel (sssp.Dijkstra — a calendar-queue bucket scan when
// the weight range allows, a 4-ary heap otherwise, both with
// epoch-stamped O(1) reset; brandes.DependencyOnTargetIdentityWeighted
// against a cached sssp.WeightedTargetSPD). The identity needs
// symmetry, so the chains, μ derivations and set oracles of
// internal/mcmc refuse directed graphs, which the serving stack never
// builds. The reference Brandes accumulation (brandes.Accumulate)
// remains the baseline the equivalence tests hold both routes to. The
// same two kernels also carry Brandes' backward pass in pull form
// (sssp.BFS and sssp.Dijkstra Accumulate/DeltaOf): betweenness
// rankings share it and brandes.BCParallel runs it on undirected
// graphs, within 1e-12 relative of the reference. See README.md for
// the selection rules, equivalence guarantees, and measured speedups,
// and scripts/bench.sh for the benchmark-tracking workflow.
//
// # Serving model and cancellation
//
// bcserve runs zero, one, or many graphs as store sessions. The
// /graphs API manages the lifecycle (POST /graphs uploads an edge
// list, GET /graphs lists, DELETE /graphs/{id} drops), and each
// session serves /graphs/{id}/estimate, /graphs/{id}/estimate/batch,
// /graphs/{id}/exact/{v}, and /graphs/{id}/stats. The pre-store
// single-graph routes (/estimate, /estimate/batch, /exact/{v},
// /stats) remain as aliases for the default session — the first
// preloaded graph. Idle sessions are evicted least-recently-used when
// the store exceeds its memory budget; pinned (preloaded) and busy
// sessions are exempt.
//
// context.Context is threaded end-to-end: each HTTP request's context,
// merged with its session's lifecycle context, reaches the MH chain
// step loop (mcmc.Run, the one chain runner every estimate and rank
// chain goes through), which polls it every few hundred steps, and a
// betweenness ranking's source passes, which poll it before each pass.
// A disconnected client maps to 499, a session deleted under a running
// request to 503, and either way the work stops promptly instead of
// running to its full budget.
//
// Estimate, batch, exact, and rank requests all accept a "measure"
// field ("bc" default, "coverage", "kpath" + "measure_k", "rwbc") and
// an "adaptive" flag that swaps the fixed Eq. 14 plan for an
// empirical-Bernstein stopping rule bounded by the step budget —
// responses then carry steps_run/converged/eb_half_width. A bc rank
// request runs no chain, so "adaptive" there is a 400. Estimate, batch
// and exact requests naming neither are byte-identical to the
// pre-measure API; golden payload tests pin that.
//
// # Dynamic graphs
//
// Graphs are versioned and mutable in place through one pipeline,
// store.Mutate. PATCH /graphs/{id}/edges sends one batch of
// label-addressed edits; POST /graphs/{id}/stream is NDJSON framing of
// the same call (one batch per line, one acknowledgement line per
// batch, rejected lines reported without ending the stream). A batch
// is validated as a whole (no parallel edges, no self-loops, no blind
// deletes, no weight-class changes, vertex ids stable), costs
// O(batch), and lands as follows:
//
//   - graph.ApplyEditsOverlay absorbs it into a copy-on-write delta
//     overlay over the shared base CSR, one version ahead, which the
//     BFS/Dijkstra kernels patch into their seating arrays — the
//     traversal inner loop is identical clean or overlaid;
//   - each removed pair is vetted with graph.PairConnected (400 for a
//     batch that would disconnect the graph), and an if_version
//     precondition is answered with 409 on conflict;
//   - the WAL records it before it becomes visible (one group-
//     committed record per batch);
//   - engine.SwapGraph installs it atomically, carrying the buffer
//     pool and the μ-cache entries the biconnected-component retention
//     rule proves unaffected (answered by the amortized
//     graph.AffectedTracker) across the version bump; chain memos do
//     not carry, since every chain starts a fresh one;
//   - an outgrown overlay is folded back into a flat CSR off-lock
//     (graph.Compact; graph.RebaseCompacted re-anchors batches that
//     land mid-fold), and the WAL compacts by absolute size or by
//     sustained growth rate — both single-flight per session.
//
// Estimation is snapshot-isolated: every request, batch, and ranking
// job captures one (graph, pool, version) tuple at entry and completes
// on it bit-identically, no matter how many mutations land mid-run,
// while result-cache keys carry the version so stale entries never
// serve the new graph. Sessions re-account their memory cost on every
// batch, Info and /stats carry the version, and ranking jobs follow a
// per-job on_mutate policy (finish on the start snapshot, or cancel
// with a versioned cause). graph.ApplyEdits — the overlay plus an
// immediate Compact — is what WAL replay uses. cmd/bcserve's mutate
// and stream subcommands are the CLI clients; examples/dynamic is the
// offline walkthrough.
//
// # Top-k ranking jobs
//
// POST /graphs/{id}/rank starts a whole-graph top-k ranking
// (internal/rank) as an async job: 202 with a job id, then
// GET /jobs/{id} serves the live per-round progress (completed rounds,
// surviving candidates, partial ranking) and, once done, the final
// ranking; DELETE /jobs/{id} cancels. Small graphs (or requests with
// "sync": true) run inside the request and answer 200 directly. Jobs
// are bounded per server and run under their session's lifecycle
// context — deleting the graph aborts its rankings promptly, with the
// job record surviving to report the cause. The same ranker is
// runnable offline via `bcserve rank -in <edge list>`. See README.md
// for the knob reference and the measured progressive-vs-uniform
// allocation win.
//
// Executables are under cmd/ (bcmh, bcserve, bcbench, bcexact, bcgen)
// and runnable examples under examples/. bench_test.go in this
// directory carries one testing.B benchmark per reproduced
// table/figure plus the engine batch-vs-sequential comparison.
//
// # Testing conventions
//
// `go test -short ./...` is the tier the CI runs (with -race) and must
// stay fast (seconds); expensive statistical suites — the full
// experiment runner, long-chain stationarity checks, tight-epsilon
// certification — are skipped or shrunk under testing.Short. The full
// `go test ./...` runs everything and takes about a minute.
package bcmh
