package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"bcmh/internal/core"
	"bcmh/internal/mcmc"
	"bcmh/internal/measure"
)

// EstimateRequest is the JSON body of POST /estimate. Vertex is an
// input-file label when the server was built with labels (see
// NewServerWithLabels), an engine vertex id otherwise. Zero-valued
// fields take the core.Options defaults (epsilon 0.01, delta 0.1,
// planned steps, one chain). Measure selects the centrality measure
// ("bc" default, "coverage", "kpath" with MeasureK, "rwbc"); Adaptive
// replaces the fixed Eq. 14 plan with the empirical-Bernstein stopping
// rule at (Epsilon, Delta), bounded by Steps/MaxSteps.
type EstimateRequest struct {
	Vertex    int64   `json:"vertex"`
	Steps     int     `json:"steps,omitempty"`
	Epsilon   float64 `json:"epsilon,omitempty"`
	Delta     float64 `json:"delta,omitempty"`
	MuBound   float64 `json:"mu_bound,omitempty"`
	MaxSteps  int     `json:"max_steps,omitempty"`
	Chains    int     `json:"chains,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
	Estimator string  `json:"estimator,omitempty"`
	Measure   string  `json:"measure,omitempty"`
	MeasureK  int     `json:"measure_k,omitempty"`
	Adaptive  bool    `json:"adaptive,omitempty"`
}

// EstimateResponse is the JSON reply of POST /estimate and each entry
// of POST /estimate/batch. The measure and adaptive fields are present
// only on requests that used them — a plain bc request's reply is
// byte-identical to the pre-measure API (the golden-payload tests pin
// this).
type EstimateResponse struct {
	Vertex         int64   `json:"vertex"`
	Value          float64 `json:"value"`
	PlannedSteps   int     `json:"planned_steps"`
	Chains         int     `json:"chains"`
	MuUsed         float64 `json:"mu_used,omitempty"`
	Seed           uint64  `json:"seed"`
	AcceptanceRate float64 `json:"acceptance_rate"`
	Evals          int     `json:"evals"`
	CacheHits      int     `json:"cache_hits"`
	Measure        string  `json:"measure,omitempty"`
	MeasureK       int     `json:"measure_k,omitempty"`
	Adaptive       bool    `json:"adaptive,omitempty"`
	StepsRun       int     `json:"steps_run,omitempty"`
	Converged      bool    `json:"converged,omitempty"`
	EBHalfWidth    float64 `json:"eb_half_width,omitempty"`
}

// BatchRequest is the JSON body of POST /estimate/batch: one set of
// estimation knobs applied to every target, a request seed the
// per-target seeds derive from, and the worker-pool width.
type BatchRequest struct {
	Targets     []int64 `json:"targets"`
	Seed        uint64  `json:"seed,omitempty"`
	Concurrency int     `json:"concurrency,omitempty"`
	Steps       int     `json:"steps,omitempty"`
	Epsilon     float64 `json:"epsilon,omitempty"`
	Delta       float64 `json:"delta,omitempty"`
	MuBound     float64 `json:"mu_bound,omitempty"`
	MaxSteps    int     `json:"max_steps,omitempty"`
	Chains      int     `json:"chains,omitempty"`
	Estimator   string  `json:"estimator,omitempty"`
	Measure     string  `json:"measure,omitempty"`
	MeasureK    int     `json:"measure_k,omitempty"`
	Adaptive    bool    `json:"adaptive,omitempty"`
}

// BatchResponse is the JSON reply of POST /estimate/batch; Results is
// in request-target order.
type BatchResponse struct {
	Results   []EstimateResponse `json:"results"`
	ElapsedMS float64            `json:"elapsed_ms"`
}

// ExactResponse is the JSON reply of GET /exact/{v} for the default
// measure (no query parameters, or ?measure=bc) — unchanged from the
// pre-measure API.
type ExactResponse struct {
	Vertex int64   `json:"vertex"`
	BC     float64 `json:"bc"`
}

// MeasureExactResponse is the JSON reply of GET /exact/{v}?measure=…
// for a non-bc measure.
type MeasureExactResponse struct {
	Vertex  int64   `json:"vertex"`
	Measure string  `json:"measure"`
	K       int     `json:"k,omitempty"`
	Value   float64 `json:"value"`
}

// StatsResponse is the JSON reply of GET /stats.
type StatsResponse struct {
	N int `json:"n"`
	M int `json:"m"`
	Stats
}

// Request guards: explicitly requested steps and chains reach the
// chain loop unclamped (Options.MaxSteps only caps *planned* steps),
// so the HTTP surface bounds them — otherwise one request with an
// enormous budget pins a worker indefinitely.
const (
	// MaxRequestSteps caps the per-chain step budget one HTTP request
	// may demand (matches the planner's own cap, core.DefaultMaxSteps).
	MaxRequestSteps = core.DefaultMaxSteps
	// MaxRequestChains caps parallel chains per request.
	MaxRequestChains = 256
	// MaxBatchTargets caps the target-list length of one batch request.
	MaxBatchTargets = 4096
)

func checkRequestBudget(steps, maxSteps, chains int) error {
	if steps > MaxRequestSteps {
		return fmt.Errorf("steps %d exceeds the per-request limit %d", steps, MaxRequestSteps)
	}
	if maxSteps > MaxRequestSteps {
		return fmt.Errorf("max_steps %d exceeds the per-request limit %d", maxSteps, MaxRequestSteps)
	}
	if chains > MaxRequestChains {
		return fmt.Errorf("chains %d exceeds the per-request limit %d", chains, MaxRequestChains)
	}
	return nil
}

func parseEstimator(name string) (mcmc.EstimatorKind, error) {
	switch name {
	case "", mcmc.EstimatorChainAverage.String():
		return mcmc.EstimatorChainAverage, nil
	case mcmc.EstimatorPaperEq7.String():
		return mcmc.EstimatorPaperEq7, nil
	case mcmc.EstimatorProposalSide.String():
		return mcmc.EstimatorProposalSide, nil
	case mcmc.EstimatorHarmonic.String():
		return mcmc.EstimatorHarmonic, nil
	default:
		return 0, fmt.Errorf("unknown estimator %q", name)
	}
}

// NewServerWithLabels returns the HTTP handler internal/store mounts
// over each session's engine e:
//
//	POST /estimate        estimate one vertex (EstimateRequest)
//	POST /estimate/batch  estimate a target list (BatchRequest)
//	GET  /exact/{v}       exact value at v (μ-cache by-product)
//	GET  /stats           engine counters and graph size
//
// Requests are addressed by original input labels: labels[i] is the
// original label of engine vertex i (the composition of edge-list
// compaction and largest-component extraction). Responses report the
// same labels. Edge-list readers compact labels in first-appearance
// order, so even a file whose labels are already 0..n-1 usually ends up
// relabelled — cmd/bcserve always serves labels so "vertex": 33 means
// the file's vertex 33. Nil labels address the prepared graph's ids,
// [0, n), directly.
func NewServerWithLabels(e *Engine, labels []int64) http.Handler {
	s := &server{e: e, labelOf: labels}
	if labels != nil {
		s.byLabel = make(map[int64]int, len(labels))
		for v, l := range labels {
			s.byLabel[l] = v
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /estimate", s.handleEstimate)
	mux.HandleFunc("POST /estimate/batch", s.handleBatch)
	mux.HandleFunc("GET /exact/{v}", s.handleExact)
	mux.HandleFunc("GET /stats", s.handleStats)
	return JSONMux(mux)
}

type server struct {
	e       *Engine
	labelOf []int64       // engine vertex -> original label (nil: identity)
	byLabel map[int64]int // original label -> engine vertex
}

// vertexOf resolves a request vertex (label or raw id) to an engine
// vertex id.
func (s *server) vertexOf(v int64) (int, error) {
	if s.byLabel == nil {
		return int(v), nil
	}
	id, ok := s.byLabel[v]
	if !ok {
		return 0, fmt.Errorf("engine: %w label %d (dropped with a smaller component, or absent from the input)", ErrUnknownVertex, v)
	}
	return id, nil
}

// labelFor is vertexOf's inverse, for responses.
func (s *server) labelFor(v int) int64 {
	if s.labelOf == nil {
		return int64(v)
	}
	return s.labelOf[v]
}

// StatusClientClosedRequest is the (de-facto standard, nginx-origin)
// status reported when an estimate aborts because the request's own
// context was cancelled — the client hung up, so nobody reads the reply,
// but logs and tests still see an honest code.
const StatusClientClosedRequest = 499

// WriteJSON writes v as the JSON response body with the given status.
// v is encoded before anything is written, so a value JSON cannot
// carry (NaN or ±Inf in a float field) gets a 500 error reply instead
// of the success status with an empty body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, fmt.Errorf("engine: encoding reply: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client has gone; there is no one left
	// to report it to.
	_, _ = w.Write(append(body, '\n'))
}

// WriteError writes the error-shape reply every endpoint of this
// serving stack uses: {"error": "<message>"} with the given status.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// JSONMux wraps a ServeMux so its built-in plain-text replies — 404
// for unknown routes, 405 (with the Allow header) for method
// mismatches — take the {"error": ...} shape every handler-written
// reply uses. Matched requests pass through untouched; the mux's own
// status and Allow decisions are replayed against a probe writer, so
// routing semantics are exactly the stock ServeMux's.
func JSONMux(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, pattern := mux.Handler(r); pattern != "" {
			mux.ServeHTTP(w, r)
			return
		}
		probe := muxProbe{header: http.Header{}}
		mux.ServeHTTP(&probe, r)
		status := probe.status
		if status == 0 {
			status = http.StatusNotFound
		}
		if allow := probe.header.Get("Allow"); allow != "" {
			w.Header().Set("Allow", allow)
		}
		if status == http.StatusMethodNotAllowed {
			WriteError(w, status, fmt.Errorf("engine: method %s not allowed for %s", r.Method, r.URL.Path))
			return
		}
		WriteError(w, status, fmt.Errorf("engine: no such route %s", r.URL.Path))
	})
}

// muxProbe captures the status and headers ServeMux's internal error
// handler would have written, discarding the plain-text body.
type muxProbe struct {
	header http.Header
	status int
}

func (p *muxProbe) Header() http.Header { return p.header }

func (p *muxProbe) Write(b []byte) (int, error) { return len(b), nil }

func (p *muxProbe) WriteHeader(code int) {
	if p.status == 0 {
		p.status = code
	}
}

// StatusForError maps an estimation-path error to its pinned HTTP
// status:
//
//   - context cancellation/deadline → 499 when the request's own
//     context fired, 503 when a custom cancellation cause (e.g. a graph
//     session being evicted or the server draining) aborted it — the
//     cause's message is what the client should see, so it is returned
//     alongside;
//   - ErrUnknownVertex (out-of-range ids, labels not in the serving
//     table) → 404;
//   - mcmc.ErrNonFinite (the graph's shortest-path counts exceed
//     float64's range, so a dependency value is NaN or ±Inf) → 422;
//   - everything else (malformed options, over-budget requests) → 400.
func StatusForError(ctx context.Context, err error) (int, error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if cause := context.Cause(ctx); cause != nil &&
			!errors.Is(cause, context.Canceled) && !errors.Is(cause, context.DeadlineExceeded) {
			return http.StatusServiceUnavailable, cause
		}
		return StatusClientClosedRequest, err
	}
	if errors.Is(err, ErrUnknownVertex) {
		return http.StatusNotFound, err
	}
	if errors.Is(err, mcmc.ErrNonFinite) {
		return http.StatusUnprocessableEntity, err
	}
	return http.StatusBadRequest, err
}

func writeRequestError(w http.ResponseWriter, ctx context.Context, err error) {
	status, mapped := StatusForError(ctx, err)
	WriteError(w, status, mapped)
}

func toResponse(label int64, seed uint64, spec measure.Spec, adaptive bool, est core.Estimate) EstimateResponse {
	resp := EstimateResponse{
		Vertex:         label,
		Value:          est.Value,
		PlannedSteps:   est.PlannedSteps,
		Chains:         est.Chains,
		MuUsed:         est.MuUsed,
		Seed:           seed,
		AcceptanceRate: est.Diagnostics.AcceptanceRate,
		Evals:          est.Diagnostics.Evals,
		CacheHits:      est.Diagnostics.CacheHits,
	}
	// Opt-in fields only: a plain bc request's reply must stay
	// byte-identical to the pre-measure API.
	if !spec.IsBC() {
		resp.Measure = spec.Kind.String()
		if spec.Kind == measure.KPath {
			resp.MeasureK = spec.K
		}
	}
	if adaptive {
		resp.Adaptive = true
		resp.StepsRun = est.Diagnostics.StepsRun
		resp.Converged = est.Diagnostics.Converged
		resp.EBHalfWidth = est.Diagnostics.EBHalfWidth
	}
	return resp
}

func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req EstimateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %v", err))
		return
	}
	kind, err := parseEstimator(req.Estimator)
	if err != nil {
		writeRequestError(w, r.Context(), err)
		return
	}
	spec, err := measure.Parse(req.Measure, req.MeasureK)
	if err != nil {
		writeRequestError(w, r.Context(), err)
		return
	}
	if err := checkRequestBudget(req.Steps, req.MaxSteps, req.Chains); err != nil {
		writeRequestError(w, r.Context(), err)
		return
	}
	vertex, err := s.vertexOf(req.Vertex)
	if err != nil {
		writeRequestError(w, r.Context(), err)
		return
	}
	opts := core.Options{
		Steps:     req.Steps,
		Epsilon:   req.Epsilon,
		Delta:     req.Delta,
		MuBound:   req.MuBound,
		MaxSteps:  req.MaxSteps,
		Chains:    req.Chains,
		Seed:      req.Seed,
		Estimator: kind,
		Adaptive:  req.Adaptive,
	}
	est, err := s.e.estimateOn(r.Context(), s.e.current(), spec, vertex, opts)
	if err != nil {
		writeRequestError(w, r.Context(), err)
		return
	}
	WriteJSON(w, http.StatusOK, toResponse(req.Vertex, req.Seed, spec, req.Adaptive, est))
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %v", err))
		return
	}
	kind, err := parseEstimator(req.Estimator)
	if err != nil {
		writeRequestError(w, r.Context(), err)
		return
	}
	spec, err := measure.Parse(req.Measure, req.MeasureK)
	if err != nil {
		writeRequestError(w, r.Context(), err)
		return
	}
	if err := checkRequestBudget(req.Steps, req.MaxSteps, req.Chains); err != nil {
		writeRequestError(w, r.Context(), err)
		return
	}
	if len(req.Targets) > MaxBatchTargets {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("batch of %d targets exceeds the limit %d", len(req.Targets), MaxBatchTargets))
		return
	}
	targets := make([]int, len(req.Targets))
	for i, label := range req.Targets {
		if targets[i], err = s.vertexOf(label); err != nil {
			writeRequestError(w, r.Context(), err)
			return
		}
	}
	opts := BatchOptions{
		Estimation: core.Options{
			Steps:     req.Steps,
			Epsilon:   req.Epsilon,
			Delta:     req.Delta,
			MuBound:   req.MuBound,
			MaxSteps:  req.MaxSteps,
			Chains:    req.Chains,
			Estimator: kind,
			Adaptive:  req.Adaptive,
		},
		Seed:        req.Seed,
		Concurrency: req.Concurrency,
		Measure:     spec,
	}
	start := time.Now()
	results, err := s.e.EstimateBatchContext(r.Context(), targets, opts)
	if err != nil {
		writeRequestError(w, r.Context(), err)
		return
	}
	resp := BatchResponse{
		Results:   make([]EstimateResponse, len(results)),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	for i, br := range results {
		resp.Results[i] = toResponse(s.labelFor(br.Target), SeedFor(req.Seed, br.Target), spec, req.Adaptive, br.Estimate)
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *server) handleExact(w http.ResponseWriter, r *http.Request) {
	label, err := strconv.ParseInt(r.PathValue("v"), 10, 64)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad vertex %q", r.PathValue("v")))
		return
	}
	q := r.URL.Query()
	k := 0
	if ks := q.Get("k"); ks != "" {
		if k, err = strconv.Atoi(ks); err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad k %q", ks))
			return
		}
	}
	spec, err := measure.Parse(q.Get("measure"), k)
	if err != nil {
		writeRequestError(w, r.Context(), err)
		return
	}
	v, err := s.vertexOf(label)
	if err != nil {
		writeRequestError(w, r.Context(), err)
		return
	}
	ms, err := s.e.muStatsOn(r.Context(), s.e.current(), spec, v)
	if err != nil {
		writeRequestError(w, r.Context(), err)
		return
	}
	if spec.IsBC() {
		WriteJSON(w, http.StatusOK, ExactResponse{Vertex: label, BC: ms.BC})
		return
	}
	resp := MeasureExactResponse{Vertex: label, Measure: spec.Kind.String(), Value: ms.BC}
	if spec.Kind == measure.KPath {
		resp.K = spec.K
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	// One snapshot for n/m/version (a concurrent SwapGraph must not
	// produce a reply pairing the new version with the old edge count).
	snap := s.e.Snapshot()
	stats := s.e.Stats()
	stats.Version = snap.Version
	WriteJSON(w, http.StatusOK, StatsResponse{
		N:     snap.Graph.N(),
		M:     snap.Graph.M(),
		Stats: stats,
	})
}
