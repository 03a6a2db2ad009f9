package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"

	"bcmh/internal/engine"
	"bcmh/internal/jobs"
)

// httpHandler aliases http.Handler for the Session's lazy per-session
// handler field (store.go stays free of net/http).
type httpHandler = http.Handler

// UploadRequest is the JSON body of POST /graphs: a session id and the
// edge list as text (one "u v" or "u v w" edge per line, '#'/'%'
// comments allowed — the same format bcserve reads from disk).
// Alternatively the endpoint accepts a raw edge-list body (any
// non-JSON content type) with the id in the ?id= query parameter.
type UploadRequest struct {
	ID       string `json:"id"`
	EdgeList string `json:"edge_list"`
}

// ListResponse is the JSON reply of GET /graphs.
type ListResponse struct {
	Graphs []Info `json:"graphs"`
	Stats
}

// SessionStatsResponse is the JSON reply of GET /graphs/{id}/stats and
// of the aliased GET /stats: the session's graph size and engine
// counters.
type SessionStatsResponse struct {
	ID string `json:"id"`
	N  int    `json:"n"`
	M  int    `json:"m"`
	engine.Stats
	// Durability state (see Info): present only on durable sessions.
	Durable       bool   `json:"durable,omitempty"`
	WalBytes      int64  `json:"wal_bytes,omitempty"`
	Degraded      bool   `json:"degraded,omitempty"`
	DegradedCause string `json:"degraded_cause,omitempty"`
}

// ServerOptions tunes NewServerWithOptions beyond the store itself.
type ServerOptions struct {
	// DefaultID names the session the legacy single-graph routes alias
	// (empty: no default, those routes answer 404).
	DefaultID string
	// MaxRankJobs bounds concurrently running ranking jobs (zero:
	// jobs.DefaultMaxRunning).
	MaxRankJobs int
	// SyncRankN is the synchronous fast-path threshold: a ranking
	// request without an explicit "sync" field runs inside the request
	// when the session's graph has at most this many vertices. Zero
	// means rankings are always jobs unless the request says
	// "sync": true.
	SyncRankN int
}

// NewServerWithOptions returns the multi-tenant HTTP handler
// cmd/bcserve mounts over a store:
//
//	POST   /graphs                      create a session from an uploaded edge list
//	GET    /graphs                      list sessions + store budget counters
//	GET    /graphs/{id}                 describe one session
//	DELETE /graphs/{id}                 delete a session (aborts its in-flight work)
//	PATCH  /graphs/{id}/edges           apply an edge-mutation batch (MutateRequest)
//	POST   /graphs/{id}/estimate        engine.EstimateRequest
//	POST   /graphs/{id}/estimate/batch  engine.BatchRequest
//	GET    /graphs/{id}/exact/{v}       exact betweenness
//	GET    /graphs/{id}/stats           session stats
//	POST   /graphs/{id}/rank            top-k ranking (RankRequest; job or sync)
//	GET    /jobs                        list ranking jobs
//	GET    /jobs/{jid}                  one job: status, progress, result
//	DELETE /jobs/{jid}                  cancel a running job
//
// The single-graph routes of earlier releases — POST /estimate,
// POST /estimate/batch, GET /exact/{v}, GET /stats — remain mounted as
// aliases for the session named opts.DefaultID (404 when it is empty
// or no such session exists), so existing clients keep working
// unchanged against the default graph.
//
// Every estimation request runs under a context derived from both the
// request and the session lifecycle: client disconnects abort the
// chains with 499 semantics, and deleting the session under a running
// request aborts it with 503 and the session-closed message. Ranking
// jobs outlive their originating request but not their session — they
// run under the session's lifecycle context and die with it.
func NewServerWithOptions(st *Store, opts ServerOptions) http.Handler {
	s := &storeServer{
		st:        st,
		defaultID: opts.DefaultID,
		opts:      opts,
		jobs:      jobs.NewManager(jobs.Config{MaxRunning: opts.MaxRankJobs}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /graphs", s.handleCreate)
	mux.HandleFunc("GET /graphs", s.handleList)
	mux.HandleFunc("GET /graphs/{id}", s.handleInfo)
	mux.HandleFunc("DELETE /graphs/{id}", s.handleDelete)
	// Ranking and jobs (rank.go). The literal "rank" segment outranks
	// the {rest...} wildcard below, so this route wins for /rank.
	mux.HandleFunc("POST /graphs/{id}/rank", s.handleRank)
	// Edge mutation (mutate.go); literal "edges" outranks {rest...}
	// the same way.
	mux.HandleFunc("PATCH /graphs/{id}/edges", s.handleMutate)
	// Bulk streaming ingestion (stream.go): NDJSON framing of the same
	// mutation pipeline, one batch per line.
	mux.HandleFunc("POST /graphs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /jobs", s.handleJobList)
	mux.HandleFunc("GET /jobs/{jid}", s.handleJob)
	mux.HandleFunc("DELETE /jobs/{jid}", s.handleJobCancel)
	// Estimation routes delegate to the session's single-graph handler
	// (the exact handler bcserve used to mount process-wide), addressed
	// beneath /graphs/{id}/. The {rest...} wildcard (not TrimPrefix on
	// the decoded id) keeps percent-encoded request paths routable.
	mux.HandleFunc("/graphs/{id}/{rest...}", s.handleSession)
	// Compatibility aliases for the default session.
	for _, route := range []string{"POST /estimate", "POST /estimate/batch", "GET /exact/{v}", "GET /stats"} {
		mux.HandleFunc(route, s.handleDefaultSession)
	}
	return engine.JSONMux(mux)
}

type storeServer struct {
	st        *Store
	defaultID string
	opts      ServerOptions
	jobs      *jobs.Manager
}

// storeStatus maps store lifecycle and upload errors to their pinned
// statuses.
func storeStatus(err error) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrExists):
		return http.StatusConflict
	case errors.Is(err, ErrTooLarge), errors.As(err, &tooBig):
		// Over the store's graph budget, or over the HTTP body cap —
		// either way the upload is too large, not malformed.
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrStoreClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// bodyCapTracker remembers whether the request body hit the server's
// MaxBytesHandler cap. The cap can fire mid-line, in which case the
// edge-list parser reports the truncated line as a syntax error first —
// the tracker lets handleCreate report the true cause (413, not 400).
type bodyCapTracker struct {
	r   io.Reader
	hit *http.MaxBytesError
}

func (b *bodyCapTracker) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		b.hit = mbe
	}
	return n, err
}

func (s *storeServer) handleCreate(w http.ResponseWriter, r *http.Request) {
	body := &bodyCapTracker{r: r.Body}
	fail := func(err error) {
		status := storeStatus(err)
		if body.hit != nil {
			status, err = http.StatusRequestEntityTooLarge, body.hit
		}
		engine.WriteError(w, status, err)
	}
	id, edges, err := parseUpload(r, body)
	if err != nil {
		fail(err)
		return
	}
	sess, err := s.st.Create(id, edges)
	if err != nil {
		fail(err)
		return
	}
	engine.WriteJSON(w, http.StatusCreated, sess.info())
}

// parseUpload extracts (id, edge list reader) from either upload shape,
// reading the request body through `body` (the cap tracker).
func parseUpload(r *http.Request, body io.Reader) (string, io.Reader, error) {
	ct := r.Header.Get("Content-Type")
	if mt, _, _ := mime.ParseMediaType(ct); mt == "application/json" {
		var req UploadRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			return "", nil, fmt.Errorf("decoding request: %w", err)
		}
		if req.EdgeList == "" {
			return "", nil, fmt.Errorf("upload: empty edge_list")
		}
		return req.ID, strings.NewReader(req.EdgeList), nil
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		return "", nil, fmt.Errorf("upload: raw edge-list uploads need an ?id= query parameter")
	}
	return id, body, nil
}

func (s *storeServer) handleList(w http.ResponseWriter, r *http.Request) {
	engine.WriteJSON(w, http.StatusOK, ListResponse{Graphs: s.st.List(), Stats: s.st.Stats()})
}

func (s *storeServer) handleInfo(w http.ResponseWriter, r *http.Request) {
	sess, err := s.st.Get(r.PathValue("id"))
	if err != nil {
		engine.WriteError(w, storeStatus(err), err)
		return
	}
	engine.WriteJSON(w, http.StatusOK, sess.info())
}

func (s *storeServer) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.st.Delete(r.PathValue("id")); err != nil {
		engine.WriteError(w, storeStatus(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleSession serves /graphs/{id}/<rest> by delegating <rest> to the
// session's single-graph handler under the session-coupled context.
func (s *storeServer) handleSession(w http.ResponseWriter, r *http.Request) {
	rest := r.PathValue("rest")
	if rest == "" {
		// Keep the JSON error shape every other route uses (the stock
		// http.NotFound reply is plain text).
		engine.WriteError(w, http.StatusNotFound, errors.New("store: no such route under /graphs/{id}/"))
		return
	}
	s.serveOnSession(w, r, r.PathValue("id"), "/"+rest)
}

// handleDefaultSession aliases the legacy single-graph routes onto the
// default session.
func (s *storeServer) handleDefaultSession(w http.ResponseWriter, r *http.Request) {
	if s.defaultID == "" {
		engine.WriteError(w, http.StatusNotFound,
			errors.New("store: no default graph session; address a session via /graphs/{id}/... or start the server with a preloaded graph"))
		return
	}
	s.serveOnSession(w, r, s.defaultID, r.URL.Path)
}

// serveOnSession runs one estimation-route request on the named
// session: acquire (so the memory budget cannot evict mid-request),
// couple the request context to the session lifecycle, rewrite the
// path, and delegate.
func (s *storeServer) serveOnSession(w http.ResponseWriter, r *http.Request, id, rest string) {
	sess, release, err := s.st.Acquire(id)
	if err != nil {
		engine.WriteError(w, storeStatus(err), err)
		return
	}
	defer release()
	ctx, stop := sess.RequestContext(r.Context())
	defer stop()
	r2 := r.Clone(ctx)
	r2.URL.Path = rest
	r2.URL.RawPath = ""
	sess.sessionHandler().ServeHTTP(w, r2)
}

// sessionHandler lazily builds the session's single-graph handler — the
// same engine.NewServerWithLabels handler the single-tenant server
// mounts, minus /stats, which is overridden to include the session id.
func (s *Session) sessionHandler() http.Handler {
	s.handlerOnce.Do(func() {
		inner := engine.NewServerWithLabels(s.eng, s.labels)
		mux := http.NewServeMux()
		mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
			// One snapshot for n/m/version: a PATCH landing between two
			// separate engine reads must not yield a mixed-version reply
			// (version 1 with version 0's edge count).
			snap := s.eng.Snapshot()
			stats := s.eng.Stats()
			stats.Version = snap.Version
			resp := SessionStatsResponse{
				ID:       s.id,
				N:        snap.Graph.N(),
				M:        snap.Graph.M(),
				Stats:    stats,
				Durable:  s.durable,
				WalBytes: s.WalBytes(),
			}
			if deg, cause := s.Degraded(); deg {
				resp.Degraded = true
				resp.DegradedCause = cause.Error()
			}
			engine.WriteJSON(w, http.StatusOK, resp)
		})
		mux.Handle("/", inner)
		s.handler = mux
	})
	return s.handler
}
