package store

// Async top-k ranking over store sessions: POST /graphs/{id}/rank
// starts (or, for small graphs, synchronously runs) an internal/rank
// progressive-refinement ranking on a session's graph, and the /jobs
// routes expose the resulting internal/jobs records — status, the
// per-round partial ranking while running, the final ranking once done,
// and cancellation. Jobs run under the session's lifecycle context, so
// deleting the session aborts its rankings exactly like its estimates.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"bcmh/internal/engine"
	"bcmh/internal/jobs"
	"bcmh/internal/measure"
	"bcmh/internal/rank"
)

// Request guards for POST /graphs/{id}/rank, in the spirit of the
// engine's per-request budget caps: a ranking fans chains over every
// candidate, so unchecked knobs would let one request monopolise the
// server for hours.
const (
	// MaxRankK caps the requested ranking size.
	MaxRankK = 1024
	// MaxRankRounds caps refinement rounds.
	MaxRankRounds = 64
	// MaxRankInitialSteps caps the round-1 per-candidate chain length.
	MaxRankInitialSteps = engine.MaxRequestSteps
	// MaxRankBudget caps the total-step budget one request may demand —
	// and is the budget a request gets when it names none, so every
	// HTTP-initiated ranking terminates within a bounded step count no
	// matter how the other knobs multiply out (the library keeps
	// unbounded-by-choice semantics; the serving surface does not).
	MaxRankBudget = 1 << 28
	// MaxRankGrowth caps the per-round budget multiplier.
	MaxRankGrowth = 16
	// MaxRankConcurrency caps the ranking worker pool.
	MaxRankConcurrency = 256
	// MaxRankConfidence caps the interval multiplier z. A half-width is
	// z·√var + z²/(2N), so a large enough z overflows every interval to
	// ±Inf, and a job record holding one cannot be encoded — GET /jobs
	// would fail for every client until the record aged out. The default
	// z is 3; any z that keeps z² finite would do.
	MaxRankConfidence = 1000
	// DefaultSyncRankCap bounds the graph size a client may force into
	// the synchronous path with "sync": true. Synchronous rankings run
	// inside the request and are not counted against the job
	// concurrency bound, so without this cap N clients could bypass
	// MaxRankJobs entirely by ranking large graphs inline. Operators
	// raise the cap with ServerOptions.SyncRankN when they mean to.
	DefaultSyncRankCap = 512
)

// RankRequest is the JSON body of POST /graphs/{id}/rank. Zero-valued
// knobs take the internal/rank defaults (k=10, 128 initial steps,
// doubling rounds, z=3 intervals, every vertex a candidate) — except
// TotalBudget, which defaults to MaxRankBudget on the serving surface
// so every job terminates within a bounded step count.
type RankRequest struct {
	K             int     `json:"k,omitempty"`
	InitialSteps  int     `json:"initial_steps,omitempty"`
	Growth        float64 `json:"growth,omitempty"`
	MaxRounds     int     `json:"max_rounds,omitempty"`
	TotalBudget   int     `json:"total_budget,omitempty"`
	Confidence    float64 `json:"confidence,omitempty"`
	MaxCandidates int     `json:"max_candidates,omitempty"`
	Concurrency   int     `json:"concurrency,omitempty"`
	Seed          uint64  `json:"seed,omitempty"`
	// Estimator selects the ranking statistic: "unbiased" (default) or
	// "chain-avg" (see rank.Estimator).
	Estimator string `json:"estimator,omitempty"`
	// Measure selects the centrality measure candidates are ranked by:
	// "bc" (default), "coverage", "kpath", or "rwbc". MeasureK is the
	// k-path length bound, only valid with "kpath" (default
	// measure.DefaultKPathK).
	Measure  string `json:"measure,omitempty"`
	MeasureK int    `json:"measure_k,omitempty"`
	// Adaptive enables the empirical-Bernstein early stop on every
	// per-candidate chain (see rank.Options.Adaptive); Epsilon and Delta
	// parameterise it and are only valid with Adaptive.
	Adaptive bool    `json:"adaptive,omitempty"`
	Epsilon  float64 `json:"epsilon,omitempty"`
	Delta    float64 `json:"delta,omitempty"`
	// Sync forces the execution mode: true runs the ranking inside the
	// request (200 with the final RankResult; rejected with 400 beyond
	// max(SyncRankN, DefaultSyncRankCap) vertices — inline rankings
	// bypass the job concurrency bound, so only small graphs may force
	// it), false always starts a job (202). Unset picks by graph size —
	// at most ServerOptions.SyncRankN vertices runs synchronously.
	Sync *bool `json:"sync,omitempty"`
	// OnMutate picks the job's fate when the session's graph mutates
	// mid-run: "finish" (default) completes on the snapshot the job
	// started on — every chain stays bit-identical to a no-mutation
	// run, the result just describes the version stamped in the
	// payloads; "cancel" aborts the job promptly with a versioned cause
	// (the record reports which version invalidated it). Synchronous
	// rankings always behave like "finish".
	OnMutate string `json:"on_mutate,omitempty"`
}

// OnMutate policies.
const (
	OnMutateFinish = "finish"
	OnMutateCancel = "cancel"
)

func (req *RankRequest) validate() error {
	switch {
	case req.K < 0 || req.K > MaxRankK:
		return fmt.Errorf("k %d outside [0,%d]", req.K, MaxRankK)
	case req.InitialSteps < 0 || req.InitialSteps > MaxRankInitialSteps:
		return fmt.Errorf("initial_steps %d outside [0,%d]", req.InitialSteps, MaxRankInitialSteps)
	case req.MaxRounds < 0 || req.MaxRounds > MaxRankRounds:
		return fmt.Errorf("max_rounds %d outside [0,%d]", req.MaxRounds, MaxRankRounds)
	case req.TotalBudget < 0 || req.TotalBudget > MaxRankBudget:
		return fmt.Errorf("total_budget %d outside [0,%d]", req.TotalBudget, MaxRankBudget)
	case req.Concurrency < 0 || req.Concurrency > MaxRankConcurrency:
		return fmt.Errorf("concurrency %d outside [0,%d]", req.Concurrency, MaxRankConcurrency)
	case req.Growth < 0 || req.Confidence < 0 || req.MaxCandidates < 0:
		return fmt.Errorf("growth, confidence, and max_candidates must be non-negative")
	case req.Growth != 0 && req.Growth < 1:
		// The ranker requires Growth ≥ 1 and would silently substitute
		// its default for sub-1 values; reject instead of ignoring.
		return fmt.Errorf("growth %v below 1 (budgets cannot shrink round over round; omit it for the default)", req.Growth)
	case req.Growth > MaxRankGrowth:
		return fmt.Errorf("growth %v exceeds the per-request limit %d", req.Growth, MaxRankGrowth)
	case req.Confidence > MaxRankConfidence:
		return fmt.Errorf("confidence %v exceeds the per-request limit %d", req.Confidence, MaxRankConfidence)
	}
	if _, err := parseRankEstimator(req.Estimator); err != nil {
		return err
	}
	if _, err := measure.Parse(req.Measure, req.MeasureK); err != nil {
		return err
	}
	switch {
	case !req.Adaptive && (req.Epsilon != 0 || req.Delta != 0):
		return fmt.Errorf("epsilon/delta are only valid with \"adaptive\": true")
	case req.Epsilon < 0 || req.Epsilon >= 1:
		return fmt.Errorf("epsilon %v outside [0,1)", req.Epsilon)
	case req.Delta < 0 || req.Delta >= 1:
		return fmt.Errorf("delta %v outside [0,1)", req.Delta)
	}
	switch req.OnMutate {
	case "", OnMutateFinish, OnMutateCancel:
	default:
		return fmt.Errorf("unknown on_mutate policy %q (want %q or %q)", req.OnMutate, OnMutateFinish, OnMutateCancel)
	}
	return nil
}

func parseRankEstimator(name string) (rank.Estimator, error) {
	switch name {
	case "", rank.EstimatorUnbiased.String():
		return rank.EstimatorUnbiased, nil
	case rank.EstimatorChainAverage.String():
		return rank.EstimatorChainAverage, nil
	default:
		return 0, fmt.Errorf("unknown rank estimator %q (want %q or %q)",
			name, rank.EstimatorUnbiased, rank.EstimatorChainAverage)
	}
}

func (req *RankRequest) options() rank.Options {
	est, _ := parseRankEstimator(req.Estimator)         // validated earlier
	spec, _ := measure.Parse(req.Measure, req.MeasureK) // validated earlier
	if req.TotalBudget == 0 {
		// Serving default: a hard step ceiling, so no combination of
		// the multiplicative knobs keeps a job slot busy forever.
		req.TotalBudget = MaxRankBudget
	}
	return rank.Options{
		K:             req.K,
		InitialSteps:  req.InitialSteps,
		Growth:        req.Growth,
		MaxRounds:     req.MaxRounds,
		TotalBudget:   req.TotalBudget,
		Confidence:    req.Confidence,
		MaxCandidates: req.MaxCandidates,
		Concurrency:   req.Concurrency,
		Seed:          req.Seed,
		Estimator:     est,
		Measure:       spec,
		Adaptive:      req.Adaptive,
		Epsilon:       req.Epsilon,
		Delta:         req.Delta,
	}
}

// RankEntry is one ranked vertex in a response, addressed by input
// label (like every other vertex in the session's API).
type RankEntry struct {
	Vertex   int64   `json:"vertex"`
	Estimate float64 `json:"estimate"`
	Lower    float64 `json:"lower"`
	Upper    float64 `json:"upper"`
	Steps    int     `json:"steps"`
}

// RankProgress is the progress payload of a running ranking job
// (GET /jobs/{id} while status is "running"): the completed round
// count, surviving candidates, steps spent, the partial ranking, and
// the graph version the job's snapshot was captured from.
type RankProgress struct {
	Round        int         `json:"round"`
	Active       int         `json:"active"`
	TotalSteps   int         `json:"total_steps"`
	GraphVersion uint64      `json:"graph_version"`
	Top          []RankEntry `json:"top"`
}

// RankResult is the final payload: POST's body in synchronous mode, the
// job's result field otherwise. GraphVersion is the version the whole
// ranking ran on — rankings are snapshot-isolated, so a mutation
// landing mid-job never mixes versions inside one result.
type RankResult struct {
	Graph        string      `json:"graph"`
	GraphVersion uint64      `json:"graph_version"`
	K            int         `json:"k"`
	Top          []RankEntry `json:"top"`
	Candidates   int         `json:"candidates"`
	Pruned       int         `json:"pruned"`
	Rounds       int         `json:"rounds"`
	TotalSteps   int         `json:"total_steps"`
	ElapsedMS    float64     `json:"elapsed_ms"`
	// Measure/MeasureK echo a non-bc ranking measure; Adaptive echoes
	// the early-stop flag. All omitted on default-measure fixed-chunk
	// rankings, keeping those payloads byte-identical to the
	// pre-measure API.
	Measure  string `json:"measure,omitempty"`
	MeasureK int    `json:"measure_k,omitempty"`
	Adaptive bool   `json:"adaptive,omitempty"`
}

// JobListResponse is the JSON reply of GET /jobs.
type JobListResponse struct {
	Jobs []jobs.Info `json:"jobs"`
}

// jobStatus maps job-manager errors to their pinned statuses.
func jobStatus(err error) int {
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, jobs.ErrTooMany):
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

// labelEntries translates rank entries from engine vertex ids to the
// session's input labels.
func labelEntries(sess *Session, in []rank.Entry) []RankEntry {
	labels := sess.Labels()
	out := make([]RankEntry, len(in))
	for i, e := range in {
		label := int64(e.Vertex)
		if labels != nil {
			label = labels[e.Vertex]
		}
		out[i] = RankEntry{Vertex: label, Estimate: e.Estimate, Lower: e.Lower, Upper: e.Upper, Steps: e.Steps}
	}
	return out
}

func rankResult(sess *Session, version uint64, res rank.Result, opts rank.Options, elapsed time.Duration) RankResult {
	out := RankResult{
		Graph:        sess.ID(),
		GraphVersion: version,
		K:            len(res.TopK),
		Top:          labelEntries(sess, res.TopK),
		Candidates:   len(res.All),
		Pruned:       res.Pruned,
		Rounds:       res.Rounds,
		TotalSteps:   res.TotalSteps,
		ElapsedMS:    float64(elapsed.Microseconds()) / 1000,
		Adaptive:     opts.Adaptive,
	}
	if !opts.Measure.IsBC() {
		out.Measure = opts.Measure.Kind.String()
		if opts.Measure.Kind == measure.KPath {
			out.MeasureK = opts.Measure.K
		}
	}
	return out
}

// watchMutations cancels (with a versioned ErrMutatedUnderJob cause)
// as soon as sess's graph leaves startVersion — the on_mutate=cancel
// machinery. The returned stop function releases the watcher.
func watchMutations(sess *Session, startVersion uint64, cancel context.CancelCauseFunc) (stop func()) {
	done := make(chan struct{})
	go func() {
		for {
			// Subscribe first, then re-check the version: a mutation
			// landing between the check and the subscription would
			// otherwise be missed forever.
			ch := sess.mutationSignal()
			if v := sess.Engine().Version(); v != startVersion {
				cancel(fmt.Errorf("%w: session %q is now at graph version %d (job ran on version %d, on_mutate=%s)",
					ErrMutatedUnderJob, sess.ID(), v, startVersion, OnMutateCancel))
				return
			}
			select {
			case <-ch:
			case <-done:
				return
			}
		}
	}()
	return func() { close(done) }
}

// handleRank serves POST /graphs/{id}/rank: validate, acquire the
// session, then either run the ranking inside the request (synchronous
// fast path) or start a job under the session's lifecycle context and
// answer 202 with the job description.
func (s *storeServer) handleRank(w http.ResponseWriter, r *http.Request) {
	var req RankRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		engine.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %v", err))
		return
	}
	if err := req.validate(); err != nil {
		engine.WriteError(w, http.StatusBadRequest, err)
		return
	}
	sess, release, err := s.st.Acquire(r.PathValue("id"))
	if err != nil {
		engine.WriteError(w, storeStatus(err), err)
		return
	}
	eng := sess.Engine()
	opts := req.options()
	// One consistent snapshot for the whole ranking: graph, pool, and
	// version are captured together, so a mutation landing mid-run can
	// never hand the ranker a pool sized for a different CSR, and the
	// whole result is attributable to one version.
	snap := eng.Snapshot()
	policy := req.OnMutate
	if policy == "" {
		policy = OnMutateFinish
	}

	// The synchronous path is a *small-graph* fast path: allowed by the
	// operator threshold, or forced by the request — but only up to the
	// sync cap, because inline rankings bypass the job concurrency
	// bound.
	syncCap := s.opts.SyncRankN
	if syncCap < DefaultSyncRankCap {
		syncCap = DefaultSyncRankCap
	}
	n := snap.Graph.N()
	sync := n <= s.opts.SyncRankN
	if req.Sync != nil {
		sync = *req.Sync
	}
	if sync && n > syncCap {
		release()
		engine.WriteError(w, http.StatusBadRequest,
			fmt.Errorf("graph too large for synchronous ranking (n=%d > %d); omit \"sync\" to run as a job", n, syncCap))
		return
	}
	if sync {
		defer release()
		ctx, stop := sess.RequestContext(r.Context())
		defer stop()
		start := time.Now()
		res, err := rank.Run(ctx, snap.Graph, snap.Pool, opts, nil)
		if err != nil {
			status, mapped := engine.StatusForError(ctx, err)
			engine.WriteError(w, status, mapped)
			return
		}
		engine.WriteJSON(w, http.StatusOK, rankResult(sess, snap.Version, res, opts, time.Since(start)))
		return
	}

	meta := map[string]any{"graph_version": snap.Version, "on_mutate": policy}
	job, err := s.jobs.Start(sess.Context(), sess.ID(), meta, func(ctx context.Context, report func(any)) (any, error) {
		if policy == OnMutateCancel {
			mctx, mcancel := context.WithCancelCause(ctx)
			defer mcancel(context.Canceled)
			stop := watchMutations(sess, snap.Version, mcancel)
			defer stop()
			ctx = mctx
		}
		start := time.Now()
		res, err := rank.Run(ctx, snap.Graph, snap.Pool, opts, func(p rank.Progress) {
			report(RankProgress{
				Round:        p.Round,
				Active:       p.Active,
				TotalSteps:   p.TotalSteps,
				GraphVersion: snap.Version,
				Top:          labelEntries(sess, p.Top),
			})
		})
		if err != nil {
			// The mutation watcher's cause lives on the wrapped context,
			// which the job manager cannot see — fold it into the error
			// so the job record reports the versioned cause (the %w
			// keeps errors.Is(err, context.Canceled) true, so the job
			// still finalizes as cancelled, not failed).
			if cause := context.Cause(ctx); cause != nil && errors.Is(cause, ErrMutatedUnderJob) {
				err = fmt.Errorf("%v: %w", cause, err)
			}
			return nil, err
		}
		return rankResult(sess, snap.Version, res, opts, time.Since(start)), nil
	}, release)
	if err != nil {
		release()
		engine.WriteError(w, jobStatus(err), err)
		return
	}
	engine.WriteJSON(w, http.StatusAccepted, job.Info())
}

// handleJobList serves GET /jobs.
func (s *storeServer) handleJobList(w http.ResponseWriter, r *http.Request) {
	engine.WriteJSON(w, http.StatusOK, JobListResponse{Jobs: s.jobs.List()})
}

// handleJob serves GET /jobs/{jid}: status, progress while running,
// result once done.
func (s *storeServer) handleJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.Get(r.PathValue("jid"))
	if err != nil {
		engine.WriteError(w, jobStatus(err), err)
		return
	}
	engine.WriteJSON(w, http.StatusOK, job.Info())
}

// handleJobCancel serves DELETE /jobs/{jid}. Cancellation is
// asynchronous: the reply (202) carries the job snapshot, which flips
// to "cancelled" as soon as the ranking's chains observe the context —
// poll GET /jobs/{jid} for the terminal state.
func (s *storeServer) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.Cancel(r.PathValue("jid"))
	if err != nil {
		engine.WriteError(w, jobStatus(err), err)
		return
	}
	engine.WriteJSON(w, http.StatusAccepted, job.Info())
}
