package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bcmh/internal/core"
	"bcmh/internal/engine"
	"bcmh/internal/graph"
	"bcmh/internal/jobs"
	"bcmh/internal/mcmc"
	"bcmh/internal/rng"
)

func newTestServer(t *testing.T, cfg Config, defaultID string) (*Store, *httptest.Server) {
	t.Helper()
	st := New(cfg)
	t.Cleanup(st.Close)
	srv := httptest.NewServer(NewServerWithOptions(st, ServerOptions{DefaultID: defaultID}))
	t.Cleanup(srv.Close)
	return st, srv
}

func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func uploadGraph(t *testing.T, srv *httptest.Server, id string, g *graph.Graph) Info {
	t.Helper()
	var info Info
	code := doJSON(t, http.MethodPost, srv.URL+"/graphs", UploadRequest{ID: id, EdgeList: edgeList(t, g)}, &info)
	if code != http.StatusCreated {
		t.Fatalf("upload %s: status %d", id, code)
	}
	return info
}

func TestGraphManagementCRUD(t *testing.T) {
	st, srv := newTestServer(t, Config{}, "")

	info := uploadGraph(t, srv, "karate", graph.KarateClub())
	if info.ID != "karate" || info.N != 34 || info.M != 78 || info.Pinned {
		t.Fatalf("created info %+v", info)
	}

	// Raw (non-JSON) upload with the id in the query string.
	resp, err := http.Post(srv.URL+"/graphs?id=raw", "text/plain", strings.NewReader(edgeList(t, graph.Cycle(10))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("raw upload: status %d", resp.StatusCode)
	}

	var list ListResponse
	if code := doJSON(t, http.MethodGet, srv.URL+"/graphs", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Graphs) != 2 || list.Sessions != 2 || list.Graphs[0].ID != "karate" || list.Graphs[1].ID != "raw" {
		t.Fatalf("list %+v", list)
	}

	var one Info
	if code := doJSON(t, http.MethodGet, srv.URL+"/graphs/raw", nil, &one); code != http.StatusOK || one.N != 10 {
		t.Fatalf("info: %d %+v", code, one)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/graphs/raw", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	if _, err := st.Get("raw"); err == nil {
		t.Fatal("session survived DELETE")
	}
	var errResp map[string]string
	if code := doJSON(t, http.MethodGet, srv.URL+"/graphs/raw", nil, &errResp); code != http.StatusNotFound {
		t.Fatalf("info after delete: status %d", code)
	}
}

func TestSessionEstimateRoutesMatchEngine(t *testing.T) {
	st, srv := newTestServer(t, Config{}, "")
	uploadGraph(t, srv, "karate", graph.KarateClub())

	// The uploaded karate edge list relabels vertices in
	// first-appearance order; resolve label 33 through the session to
	// compute the expected value on the session's own engine.
	sess, err := st.Get("karate")
	if err != nil {
		t.Fatal(err)
	}
	var v33 int
	for v, l := range sess.Labels() {
		if l == 33 {
			v33 = v
		}
	}

	req := engine.EstimateRequest{Vertex: 33, Steps: 400, Seed: 7}
	var est engine.EstimateResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/estimate", req, &est); code != http.StatusOK {
		t.Fatalf("estimate: status %d", code)
	}
	want, err := sess.Engine().EstimateContext(context.Background(), v33, core.Options{Steps: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if est.Vertex != 33 || est.Value != want.Value {
		t.Fatalf("estimate %+v, want value %v", est, want.Value)
	}

	var batch engine.BatchResponse
	breq := engine.BatchRequest{Targets: []int64{33, 0, 33}, Seed: 5, Steps: 300}
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/estimate/batch", breq, &batch); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if len(batch.Results) != 3 || batch.Results[0].Vertex != 33 || batch.Results[0].Value != batch.Results[2].Value {
		t.Fatalf("batch %+v", batch.Results)
	}

	var exact engine.ExactResponse
	if code := doJSON(t, http.MethodGet, srv.URL+"/graphs/karate/exact/33", nil, &exact); code != http.StatusOK {
		t.Fatalf("exact: status %d", code)
	}
	ms, err := sess.Engine().MuStatsContext(context.Background(), v33)
	if err != nil {
		t.Fatal(err)
	}
	if exact.BC != ms.BC {
		t.Fatalf("exact %v, want %v", exact.BC, ms.BC)
	}

	var stats SessionStatsResponse
	if code := doJSON(t, http.MethodGet, srv.URL+"/graphs/karate/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.ID != "karate" || stats.N != 34 || stats.M != 78 || stats.Estimates == 0 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestDefaultSessionAliasRoutes(t *testing.T) {
	st := New(Config{})
	t.Cleanup(st.Close)
	if _, err := st.CreateFromGraph("default", graph.KarateClub(), nil, true); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServerWithOptions(st, ServerOptions{DefaultID: "default"}))
	t.Cleanup(srv.Close)

	// The legacy single-graph routes hit the default session.
	var est engine.EstimateResponse
	req := engine.EstimateRequest{Vertex: 0, Steps: 300, Seed: 3}
	if code := doJSON(t, http.MethodPost, srv.URL+"/estimate", req, &est); code != http.StatusOK {
		t.Fatalf("alias estimate: status %d", code)
	}
	var viaGraphs engine.EstimateResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/default/estimate", req, &viaGraphs); code != http.StatusOK {
		t.Fatalf("addressed estimate: status %d", code)
	}
	if est.Value != viaGraphs.Value {
		t.Fatalf("alias %v != addressed %v", est.Value, viaGraphs.Value)
	}

	var exact engine.ExactResponse
	if code := doJSON(t, http.MethodGet, srv.URL+"/exact/0", nil, &exact); code != http.StatusOK {
		t.Fatalf("alias exact: status %d", code)
	}
	var stats SessionStatsResponse
	if code := doJSON(t, http.MethodGet, srv.URL+"/stats", nil, &stats); code != http.StatusOK || stats.ID != "default" {
		t.Fatalf("alias stats: %d %+v", code, stats)
	}
}

// TestMuColumnChainsCounted drives the HTTP surface with N first-touch
// planned estimates, M fixed-step reads and one /exact first touch:
// only the planned first touches are chains served from the column
// their μ derivation parked. Repeats, later chains on a target and
// fixed-step reads traverse, and the /exact column stays parked with
// no chain to take it. Both stats routes report the count.
func TestMuColumnChainsCounted(t *testing.T) {
	st := New(Config{})
	t.Cleanup(st.Close)
	if _, err := st.CreateFromGraph("karate", graph.KarateClub(), nil, true); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServerWithOptions(st, ServerOptions{DefaultID: "karate"}))
	t.Cleanup(srv.Close)
	estimate := func(req engine.EstimateRequest) {
		t.Helper()
		var est engine.EstimateResponse
		if code := doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/estimate", req, &est); code != http.StatusOK {
			t.Fatalf("estimate %+v: status %d", req, code)
		}
	}
	planned := []int64{0, 33, 2, 31, 32}
	for _, v := range planned {
		req := engine.EstimateRequest{Vertex: v, Epsilon: 0.05, Delta: 0.1, MaxSteps: 512, Seed: 1}
		estimate(req) // first touch: μ derivation, then the column-served chain
		estimate(req) // result-cache hit: no chain
		req.Seed = 2
		estimate(req) // μ-cache hit: the chain traverses
	}
	for _, v := range []int64{0, 33, 1, 5} {
		estimate(engine.EstimateRequest{Vertex: v, Steps: 200, Seed: 3})
	}
	var exact engine.ExactResponse
	if code := doJSON(t, http.MethodGet, srv.URL+"/graphs/karate/exact/8", nil, &exact); code != http.StatusOK {
		t.Fatalf("exact: status %d", code)
	}
	for _, path := range []string{"/stats", "/graphs/karate/stats"} {
		var stats map[string]any
		if code := doJSON(t, http.MethodGet, srv.URL+path, nil, &stats); code != http.StatusOK {
			t.Fatalf("%s: status %d", path, code)
		}
		if got, want := stats["mu_column_chains"], float64(len(planned)); got != want {
			t.Fatalf("%s: mu_column_chains = %v, want %v", path, got, want)
		}
	}
}

func TestAliasRoutesWithoutDefaultSession(t *testing.T) {
	_, srv := newTestServer(t, Config{}, "")
	var errResp map[string]string
	if code := doJSON(t, http.MethodPost, srv.URL+"/estimate", engine.EstimateRequest{Vertex: 0}, &errResp); code != http.StatusNotFound {
		t.Fatalf("alias without default: status %d", code)
	}
	if errResp["error"] == "" {
		t.Fatal("error body missing")
	}
}

// TestServerErrorPaths pins every error class of the management and
// estimation surface to its status code and the {"error": ...} body
// shape.
func TestServerErrorPaths(t *testing.T) {
	karateCost := sessionCost(34, 78)
	_, srv := newTestServer(t, Config{MaxBytes: karateCost * 3}, "")
	uploadGraph(t, srv, "karate", graph.KarateClub())

	check := func(name string, gotCode, wantCode int, errResp map[string]string) {
		t.Helper()
		if gotCode != wantCode {
			t.Fatalf("%s: status %d, want %d", name, gotCode, wantCode)
		}
		if errResp["error"] == "" {
			t.Fatalf("%s: error body missing", name)
		}
	}

	var errResp map[string]string

	// Malformed JSON bodies: 400.
	resp, err := http.Post(srv.URL+"/graphs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&errResp)
	resp.Body.Close()
	check("malformed upload", resp.StatusCode, http.StatusBadRequest, errResp)

	resp, err = http.Post(srv.URL+"/graphs/karate/estimate", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	errResp = nil
	json.NewDecoder(resp.Body).Decode(&errResp)
	resp.Body.Close()
	check("malformed estimate", resp.StatusCode, http.StatusBadRequest, errResp)

	// Unparseable edge list: 400.
	errResp = nil
	code := doJSON(t, http.MethodPost, srv.URL+"/graphs", UploadRequest{ID: "bad", EdgeList: "0 one two three"}, &errResp)
	check("bad edge list", code, http.StatusBadRequest, errResp)

	// Missing id on a raw upload: 400.
	resp, err = http.Post(srv.URL+"/graphs", "text/plain", strings.NewReader("0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	errResp = nil
	json.NewDecoder(resp.Body).Decode(&errResp)
	resp.Body.Close()
	check("raw upload without id", resp.StatusCode, http.StatusBadRequest, errResp)

	// Duplicate id: 409.
	errResp = nil
	code = doJSON(t, http.MethodPost, srv.URL+"/graphs", UploadRequest{ID: "karate", EdgeList: "0 1\n"}, &errResp)
	check("duplicate id", code, http.StatusConflict, errResp)

	// Graph bigger than the whole store budget: 413.
	errResp = nil
	code = doJSON(t, http.MethodPost, srv.URL+"/graphs",
		UploadRequest{ID: "huge", EdgeList: edgeList(t, graph.BarabasiAlbert(2000, 3, rng.New(3)))}, &errResp)
	check("over-budget graph", code, http.StatusRequestEntityTooLarge, errResp)

	// Body over the HTTP cap (bcserve's MaxBytesHandler): also 413,
	// for both upload shapes — not a 400 masquerading as bad syntax.
	capped := httptest.NewServer(http.MaxBytesHandler(NewServerWithOptions(New(Config{}), ServerOptions{}), 1024))
	defer capped.Close()
	bigBody := edgeList(t, graph.BarabasiAlbert(500, 3, rng.New(9)))
	resp, err = http.Post(capped.URL+"/graphs?id=fat", "text/plain", strings.NewReader(bigBody))
	if err != nil {
		t.Fatal(err)
	}
	errResp = nil
	json.NewDecoder(resp.Body).Decode(&errResp)
	resp.Body.Close()
	check("body over cap (raw)", resp.StatusCode, http.StatusRequestEntityTooLarge, errResp)
	buf, _ := json.Marshal(UploadRequest{ID: "fat", EdgeList: bigBody})
	resp, err = http.Post(capped.URL+"/graphs", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	errResp = nil
	json.NewDecoder(resp.Body).Decode(&errResp)
	resp.Body.Close()
	check("body over cap (json)", resp.StatusCode, http.StatusRequestEntityTooLarge, errResp)

	// Unknown graph id on every session route: 404.
	for name, probe := range map[string]func() int{
		"estimate on unknown graph": func() int {
			errResp = nil
			return doJSON(t, http.MethodPost, srv.URL+"/graphs/nope/estimate", engine.EstimateRequest{Vertex: 0}, &errResp)
		},
		"batch on unknown graph": func() int {
			errResp = nil
			return doJSON(t, http.MethodPost, srv.URL+"/graphs/nope/estimate/batch", engine.BatchRequest{Targets: []int64{0}}, &errResp)
		},
		"exact on unknown graph": func() int {
			errResp = nil
			return doJSON(t, http.MethodGet, srv.URL+"/graphs/nope/exact/0", nil, &errResp)
		},
		"info on unknown graph": func() int {
			errResp = nil
			return doJSON(t, http.MethodGet, srv.URL+"/graphs/nope", nil, &errResp)
		},
	} {
		check(name, probe(), http.StatusNotFound, errResp)
	}

	// Unknown vertex label on a known graph: 404.
	errResp = nil
	code = doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/estimate", engine.EstimateRequest{Vertex: 999}, &errResp)
	check("unknown vertex", code, http.StatusNotFound, errResp)
	errResp = nil
	code = doJSON(t, http.MethodGet, srv.URL+"/graphs/karate/exact/999", nil, &errResp)
	check("unknown exact vertex", code, http.StatusNotFound, errResp)

	// Over-budget step/chain requests: 400.
	errResp = nil
	code = doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/estimate",
		engine.EstimateRequest{Vertex: 0, Steps: engine.MaxRequestSteps + 1}, &errResp)
	check("oversized steps", code, http.StatusBadRequest, errResp)
	errResp = nil
	code = doJSON(t, http.MethodPost, srv.URL+"/graphs/karate/estimate",
		engine.EstimateRequest{Vertex: 0, Steps: 10, Chains: engine.MaxRequestChains + 1}, &errResp)
	check("oversized chains", code, http.StatusBadRequest, errResp)
}

// TestMidRequestCancellationStatus pins the two cancellation outcomes:
// a request whose own context dies mid-estimate reports 499; a request
// aborted because its session was deleted under it reports 503.
func TestMidRequestCancellationStatus(t *testing.T) {
	st := New(Config{})
	t.Cleanup(st.Close)
	handler := NewServerWithOptions(st, ServerOptions{})
	if _, err := st.CreateFromGraph("big", graph.BarabasiAlbert(2000, 3, rng.New(23)), nil, false); err != nil {
		t.Fatal(err)
	}

	// Client-side cancellation → 499. Serve directly with an already
	// cancelled request context: deterministic, no timing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, _ := json.Marshal(engine.EstimateRequest{Vertex: 0, Steps: 1 << 20, Seed: 1})
	req := httptest.NewRequest(http.MethodPost, "/graphs/big/estimate", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != engine.StatusClientClosedRequest {
		t.Fatalf("client-cancelled estimate: status %d, want %d (body %s)", rec.Code, engine.StatusClientClosedRequest, rec.Body)
	}
	var errResp map[string]string
	if json.Unmarshal(rec.Body.Bytes(), &errResp); errResp["error"] == "" {
		t.Fatalf("client-cancelled estimate: error body missing (%s)", rec.Body)
	}

	// Batch path, same pinning.
	bbody, _ := json.Marshal(engine.BatchRequest{Targets: []int64{0, 1}, Steps: 1 << 20})
	breq := httptest.NewRequest(http.MethodPost, "/graphs/big/estimate/batch", bytes.NewReader(bbody)).WithContext(ctx)
	breq.Header.Set("Content-Type", "application/json")
	brec := httptest.NewRecorder()
	handler.ServeHTTP(brec, breq)
	if brec.Code != engine.StatusClientClosedRequest {
		t.Fatalf("client-cancelled batch: status %d (body %s)", brec.Code, brec.Body)
	}

	// Session deleted under a running request → 503. The request runs
	// over a real connection; the step budget is far beyond what can
	// finish before the delete (the in_flight counter gates the delete,
	// so this is not a sleep race).
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	type result struct {
		code int
		body map[string]string
	}
	done := make(chan result, 1)
	go func() {
		var er map[string]string
		code := doJSON(t, http.MethodPost, srv.URL+"/graphs/big/estimate",
			engine.EstimateRequest{Vertex: 1, Steps: engine.MaxRequestSteps, Chains: 64, Seed: 9}, &er)
		done <- result{code, er}
	}()
	sess, err := st.Get("big")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for sess.Engine().Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("estimate never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := st.Delete("big"); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-done:
		if res.code != http.StatusServiceUnavailable {
			t.Fatalf("session-deleted estimate: status %d (body %v)", res.code, res.body)
		}
		if !strings.Contains(res.body["error"], "session closed") {
			t.Fatalf("session-deleted estimate: error %q", res.body["error"])
		}
	case <-time.After(60 * time.Second):
		t.Fatal("estimate did not abort after session delete")
	}
}

func TestUploadedSessionsServeIndependently(t *testing.T) {
	// Two sessions answering interleaved HTTP traffic stay independent:
	// each one's exact values agree with a dedicated engine over the
	// same parsed graph.
	_, srv := newTestServer(t, Config{}, "")
	gs := map[string]*graph.Graph{
		"karate": graph.KarateClub(),
		"grid":   graph.Grid(8, 8),
	}
	for id, g := range gs {
		uploadGraph(t, srv, id, g)
	}
	for id, g := range gs {
		parsed, _, err := graph.ReadEdgeList(strings.NewReader(edgeList(t, g)))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := engine.New(parsed)
		if err != nil {
			t.Fatal(err)
		}
		for _, label := range []int64{0, 5} {
			var exact engine.ExactResponse
			url := fmt.Sprintf("%s/graphs/%s/exact/%d", srv.URL, id, label)
			if code := doJSON(t, http.MethodGet, url, nil, &exact); code != http.StatusOK {
				t.Fatalf("%s: status %d", url, code)
			}
			// Labels are first-appearance compacted: recover the engine
			// id for the label from a fresh parse (identical order).
			_, idOf, err := graph.ReadEdgeList(strings.NewReader(edgeList(t, g)))
			if err != nil {
				t.Fatal(err)
			}
			vid := -1
			for v, l := range idOf {
				if l == label {
					vid = v
				}
			}
			want, err := eng.MuStatsContext(context.Background(), vid)
			if err != nil {
				t.Fatal(err)
			}
			if exact.BC != want.BC {
				t.Fatalf("%s label %d: %v != %v", id, label, exact.BC, want.BC)
			}
		}
	}
}

// TestStoreMuxErrorsAreJSON pins the {"error": ...} shape on unmatched
// routes at both mux layers: the store's top-level mux and the
// per-session inner handler reached through /graphs/{id}/{rest...}.
func TestStoreMuxErrorsAreJSON(t *testing.T) {
	st, srv := newTestServer(t, Config{}, "")
	mustCreate(t, st, "k", karateList(t))

	for _, path := range []string{"/zzz", "/graphs/k/nosuch", "/graphs/k/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var errBody struct {
			Error string `json:"error"`
		}
		decodeErr := json.NewDecoder(resp.Body).Decode(&errBody)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
		if decodeErr != nil {
			t.Errorf("GET %s: non-JSON 404 body: %v", path, decodeErr)
		} else if errBody.Error == "" {
			t.Errorf("GET %s: empty error message", path)
		}
	}
}

// diamondChain returns k diamonds in a row: hubs 0..k, and diamond i's
// two middle vertices k+1+2i and k+2+2i, each joined to hubs i and
// i+1. The end hubs are joined by 2^k shortest paths, so σ passes
// float64's range from k = 1024.
func diamondChain(k int) *graph.Graph {
	b := graph.NewBuilder(3*k + 1)
	for i := 0; i < k; i++ {
		for _, mid := range []int{k + 1 + 2*i, k + 2 + 2*i} {
			b.AddEdge(i, mid)
			b.AddEdge(mid, i+1)
		}
	}
	return b.MustBuild()
}

// TestNonFinitePathCountsRejected pins what a graph whose path counts
// overflow float64 gets: every route that would compute with a NaN or
// ±Inf dependency answers 422 with the cause, an async rank job ends
// failed, the job list stays readable, and the library call returns an
// error instead of a NaN diagnostic.
func TestNonFinitePathCountsRejected(t *testing.T) {
	_, srv := newTestServer(t, Config{}, "")
	uploadGraph(t, srv, "dia", diamondChain(1100))
	base := srv.URL + "/graphs/dia"
	var errBody struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, http.MethodGet, base+"/exact/550", nil, &errBody); code != http.StatusUnprocessableEntity || !strings.Contains(errBody.Error, "non-finite") {
		t.Fatalf("exact: status %d, error %q; want 422 naming the non-finite value", code, errBody.Error)
	}
	for _, req := range []engine.EstimateRequest{
		{Vertex: 550, Steps: 64, Seed: 1},
		{Vertex: 550, Epsilon: 0.1, Delta: 0.1, MaxSteps: 256, Seed: 1},
	} {
		errBody.Error = ""
		if code := doJSON(t, http.MethodPost, base+"/estimate", req, &errBody); code != http.StatusUnprocessableEntity || !strings.Contains(errBody.Error, "non-finite") {
			t.Fatalf("estimate %+v: status %d, error %q; want 422 naming the non-finite value", req, code, errBody.Error)
		}
	}

	syncFalse := false
	var sub struct {
		ID string `json:"id"`
	}
	rreq := RankRequest{K: 3, Seed: 1, MaxCandidates: 8, TotalBudget: 4096, MaxRounds: 1, Sync: &syncFalse}
	if code := doJSON(t, http.MethodPost, base+"/rank", rreq, &sub); code != http.StatusAccepted {
		t.Fatalf("rank: status %d, want 202", code)
	}
	view := pollJob(t, srv, sub.ID, 30*time.Second)
	if view.Status != jobs.StatusFailed || !strings.Contains(view.Error, "non-finite") {
		t.Fatalf("rank job ended %q with error %q; want failed naming the non-finite value", view.Status, view.Error)
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/jobs", nil, nil); code != http.StatusOK {
		t.Fatalf("GET /jobs after the failed job: status %d", code)
	}

	_, err := core.EstimateBC(diamondChain(1100), 550, core.Options{Steps: 64, Seed: 1})
	if !errors.Is(err, mcmc.ErrNonFinite) {
		t.Fatalf("core.EstimateBC: err = %v, want one wrapping mcmc.ErrNonFinite", err)
	}
}
