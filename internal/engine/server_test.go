package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bcmh/internal/core"
)

func newKarateServer(t *testing.T) (*Engine, *httptest.Server) {
	t.Helper()
	e := newKarateEngine(t)
	srv := httptest.NewServer(NewServerWithLabels(e, nil))
	t.Cleanup(srv.Close)
	return e, srv
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode
}

func TestServerEstimate(t *testing.T) {
	e, srv := newKarateServer(t)
	req := EstimateRequest{Vertex: 0, Epsilon: 0.05, MaxSteps: 512, Seed: 7}
	var resp EstimateResponse
	if code := postJSON(t, srv.URL+"/estimate", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	// The HTTP path must agree with the direct engine call (which is
	// a result-cache hit now).
	want, err := e.EstimateContext(context.Background(), 0, core.Options{Epsilon: 0.05, MaxSteps: 512, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Value != want.Value || resp.PlannedSteps != want.PlannedSteps || resp.Vertex != 0 {
		t.Fatalf("response %+v, want value %v planned %d", resp, want.Value, want.PlannedSteps)
	}
	if resp.Seed != 7 {
		t.Fatalf("response seed %d", resp.Seed)
	}
}

func TestServerEstimateErrors(t *testing.T) {
	e, srv := newKarateServer(t)
	var errResp map[string]string
	if code := postJSON(t, srv.URL+"/estimate", EstimateRequest{Vertex: 99}, &errResp); code != http.StatusNotFound {
		t.Fatalf("out-of-range vertex: status %d", code)
	}
	if errResp["error"] == "" {
		t.Fatal("error body missing")
	}
	if code := postJSON(t, srv.URL+"/estimate", EstimateRequest{Vertex: 0, Estimator: "bogus"}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("bad estimator: status %d", code)
	}
	resp, err := http.Post(srv.URL+"/estimate", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
	// δ ≥ 1 is rejected before any μ work (it used to panic the
	// planner: /estimate dropped the connection, and a batch worker's
	// panic killed the process), and the server keeps serving.
	for _, c := range []struct {
		route string
		req   any
	}{
		{"/estimate", EstimateRequest{Vertex: 0, Delta: 1.5, MaxSteps: 512}},
		{"/estimate/batch", BatchRequest{Targets: []int64{0}, Delta: 1.5, MaxSteps: 512}},
	} {
		errResp = nil
		if code := postJSON(t, srv.URL+c.route, c.req, &errResp); code != http.StatusBadRequest || errResp["error"] == "" {
			t.Fatalf("%s with delta 1.5: status %d body %v", c.route, code, errResp)
		}
		var ok EstimateResponse
		if code := postJSON(t, srv.URL+"/estimate", EstimateRequest{Vertex: 0, Steps: 64, Seed: 1}, &ok); code != http.StatusOK {
			t.Fatalf("request after %s with delta 1.5: status %d", c.route, code)
		}
	}
	if misses := e.Stats().MuMisses; misses != 0 {
		t.Fatalf("rejected requests derived μ %d times", misses)
	}
}

func TestServerRejectsOversizedBudgets(t *testing.T) {
	// Explicit steps/chains bypass the planner's MaxSteps clamp, so the
	// HTTP surface must refuse budgets that would pin a worker.
	_, srv := newKarateServer(t)
	var errResp map[string]string
	if code := postJSON(t, srv.URL+"/estimate", EstimateRequest{Vertex: 0, Steps: MaxRequestSteps + 1}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("oversized steps: status %d", code)
	}
	if code := postJSON(t, srv.URL+"/estimate", EstimateRequest{Vertex: 0, Steps: 10, Chains: MaxRequestChains + 1}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("oversized chains: status %d", code)
	}
	if code := postJSON(t, srv.URL+"/estimate", EstimateRequest{Vertex: 0, MaxSteps: MaxRequestSteps * 2}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("oversized max_steps: status %d", code)
	}
	big := BatchRequest{Targets: make([]int64, MaxBatchTargets+1), Steps: 10}
	if code := postJSON(t, srv.URL+"/estimate/batch", big, &errResp); code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d", code)
	}
}

func TestServerBatch(t *testing.T) {
	_, srv := newKarateServer(t)
	req := BatchRequest{
		Targets:     []int64{0, 33, 0, 2},
		Seed:        9,
		Concurrency: 2,
		Epsilon:     0.05,
		MaxSteps:    512,
	}
	var resp BatchResponse
	if code := postJSON(t, srv.URL+"/estimate/batch", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	for i, r := range resp.Results {
		if r.Vertex != req.Targets[i] {
			t.Fatalf("result %d for vertex %d, want %d", i, r.Vertex, req.Targets[i])
		}
		if r.Seed != SeedFor(req.Seed, int(r.Vertex)) {
			t.Fatalf("result %d seed %d, want %d", i, r.Seed, SeedFor(req.Seed, int(r.Vertex)))
		}
	}
	// Duplicate target, same derived seed, same value.
	if resp.Results[0].Value != resp.Results[2].Value {
		t.Fatalf("duplicate targets disagree: %v vs %v", resp.Results[0].Value, resp.Results[2].Value)
	}
	// The whole batch is reproducible over HTTP.
	var again BatchResponse
	if code := postJSON(t, srv.URL+"/estimate/batch", req, &again); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for i := range resp.Results {
		if again.Results[i].Value != resp.Results[i].Value {
			t.Fatalf("replayed batch differs at %d", i)
		}
	}
}

func TestServerStats(t *testing.T) {
	e, srv := newKarateServer(t)
	if _, err := e.EstimateContext(context.Background(), 0, plannedOpts()); err != nil {
		t.Fatal(err)
	}
	var resp StatsResponse
	if code := getJSON(t, srv.URL+"/stats", &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.N != 34 || resp.M != 78 {
		t.Fatalf("graph size %d/%d", resp.N, resp.M)
	}
	if resp.Estimates != 1 || resp.MuMisses != 1 {
		t.Fatalf("stats %+v", resp.Stats)
	}
}

func TestServerExactErrors(t *testing.T) {
	_, srv := newKarateServer(t)
	var errResp map[string]string
	if code := getJSON(t, srv.URL+"/exact/99", &errResp); code != http.StatusNotFound {
		t.Fatalf("out-of-range: status %d", code)
	}
	if code := getJSON(t, srv.URL+"/exact/zzz", &errResp); code != http.StatusBadRequest {
		t.Fatalf("non-numeric: status %d", code)
	}
}

func TestServerWithLabels(t *testing.T) {
	// A label table mimicking what edge-list compaction produces:
	// engine vertex i carries original label 100+i. Requests use the
	// labels; responses echo them; unknown labels are rejected.
	e := newKarateEngine(t)
	labels := make([]int64, 34)
	for i := range labels {
		labels[i] = int64(100 + i)
	}
	srv := httptest.NewServer(NewServerWithLabels(e, labels))
	defer srv.Close()

	var exact ExactResponse
	if code := getJSON(t, srv.URL+"/exact/100", &exact); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	want, err := e.MuStatsContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Vertex != 100 || exact.BC != want.BC {
		t.Fatalf("labelled exact %+v, want vertex 100 bc %v", exact, want.BC)
	}

	var est EstimateResponse
	req := EstimateRequest{Vertex: 133, Steps: 200, Seed: 3}
	if code := postJSON(t, srv.URL+"/estimate", req, &est); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	direct, err := e.EstimateContext(context.Background(), 33, core.Options{Steps: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if est.Vertex != 133 || est.Value != direct.Value {
		t.Fatalf("labelled estimate %+v, want vertex 133 value %v", est, direct.Value)
	}

	var batch BatchResponse
	breq := BatchRequest{Targets: []int64{100, 133}, Seed: 5, Steps: 200}
	if code := postJSON(t, srv.URL+"/estimate/batch", breq, &batch); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if batch.Results[0].Vertex != 100 || batch.Results[1].Vertex != 133 {
		t.Fatalf("batch labels %+v", batch.Results)
	}

	// Engine id 0 is not a known label here; nor is an arbitrary one.
	// Unknown labels are 404s: the resource (the vertex) does not exist.
	var errResp map[string]string
	if code := getJSON(t, srv.URL+"/exact/0", &errResp); code != http.StatusNotFound {
		t.Fatalf("unknown label accepted: status %d", code)
	}
	if code := postJSON(t, srv.URL+"/estimate", EstimateRequest{Vertex: 7}, &errResp); code != http.StatusNotFound {
		t.Fatalf("unknown label accepted: status %d", code)
	}
}

func TestServerExactUsesMuCache(t *testing.T) {
	e, srv := newKarateServer(t)
	var first, second ExactResponse
	url := fmt.Sprintf("%s/exact/%d", srv.URL, 0)
	if code := getJSON(t, url, &first); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if code := getJSON(t, url, &second); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if first.BC != second.BC {
		t.Fatalf("exact value unstable: %v vs %v", first.BC, second.BC)
	}
	st := e.Stats()
	if st.MuMisses != 1 || st.MuHits != 1 {
		t.Fatalf("second exact query recomputed μ: %+v", st)
	}
}

// TestServerMuxErrorsAreJSON pins the {"error": ...} shape on the
// replies the stock ServeMux would write as plain text: 404 for an
// unknown route, 405 (with Allow preserved) for a method mismatch.
func TestServerMuxErrorsAreJSON(t *testing.T) {
	_, srv := newKarateServer(t)

	var errBody struct {
		Error string `json:"error"`
	}
	if code := getJSON(t, srv.URL+"/nosuch", &errBody); code != http.StatusNotFound {
		t.Fatalf("GET /nosuch: status %d, want 404", code)
	}
	if errBody.Error == "" {
		t.Fatal("GET /nosuch: empty error message")
	}

	resp, err := http.Get(srv.URL + "/estimate") // registered as POST-only
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /estimate: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "POST" {
		t.Fatalf("GET /estimate: Allow %q, want POST", allow)
	}
	errBody.Error = ""
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatalf("GET /estimate: non-JSON 405 body: %v", err)
	}
	if errBody.Error == "" {
		t.Fatal("GET /estimate: empty error message in 405 body")
	}
}

// TestWriteJSONUnencodableValue pins the reply to a value JSON cannot
// carry: a NaN field gets a 500 in the {"error": ...} shape, never the
// success status with an empty body. An encodable value keeps its
// status and the encoder's trailing newline.
func TestWriteJSONUnencodableValue(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, EstimateResponse{Vertex: 3, Value: math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("NaN reply: status %d, want 500", rec.Code)
	}
	var errBody struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &errBody); err != nil {
		t.Fatalf("NaN reply body %q is not JSON: %v", rec.Body.String(), err)
	}
	if !strings.Contains(errBody.Error, "NaN") {
		t.Fatalf("NaN reply error %q does not name the value", errBody.Error)
	}

	rec = httptest.NewRecorder()
	WriteJSON(rec, http.StatusCreated, map[string]float64{"bc": 0.5})
	if rec.Code != http.StatusCreated || rec.Body.String() != "{\"bc\":0.5}\n" {
		t.Fatalf("finite reply: status %d body %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("finite reply: Content-Type %q", ct)
	}
}
