package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"bcmh/internal/core"
)

// fuzzWorkBound caps the chain steps a fuzzed request may run, so every
// input finishes in milliseconds on karate. Inputs asking for more are
// skipped, not sent.
const fuzzWorkBound = 1 << 15

// withinFuzzBound reports whether a request's chain work, per target,
// fits fuzzWorkBound: fixed steps, or else the max_steps budget a plan
// or the adaptive rule stays within (core.DefaultMaxSteps when unset),
// times chains.
func withinFuzzBound(steps, maxSteps, chains, targets int) bool {
	budget := steps
	if budget <= 0 {
		budget = maxSteps
	}
	if budget <= 0 {
		budget = core.DefaultMaxSteps
	}
	chains = max(chains, 1)
	targets = max(targets, 1)
	return budget <= fuzzWorkBound/chains/targets
}

// fuzzServe posts body to route on h, calling ServeHTTP directly so a
// panic in the handler (or in a batch worker goroutine) fails the fuzz
// target instead of being recovered by net/http. It checks the reply
// contract every estimate route keeps: status 200, 400 or 404, and a
// JSON object body. It returns the status and the body.
func fuzzServe(t *testing.T, h http.Handler, route string, body []byte) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
	default:
		t.Fatalf("POST %s %s: status %d body %s", route, body, rec.Code, rec.Body)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &obj); err != nil {
		t.Fatalf("POST %s %s: body is not a JSON object: %v (%s)", route, body, err, rec.Body)
	}
	return rec.Code, rec.Body.Bytes()
}

func checkFuzzValue(t *testing.T, body []byte, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		t.Fatalf("request %s: 200 reply carries value %v", body, v)
	}
}

func FuzzEstimateRequest(f *testing.F) {
	for _, seed := range []string{
		`{"vertex":0,"steps":512,"seed":7}`,
		`{"vertex":33,"epsilon":0.1,"delta":0.2,"max_steps":4096,"seed":11}`,
		`{"vertex":2,"steps":256,"chains":3,"seed":5}`,
		`{"vertex":5,"steps":384,"seed":13,"measure":"bc"}`,
		`{"vertex":0,"steps":512,"seed":7,"estimator":"eq7-literal"}`,
		`{"vertex":0,"steps":512,"seed":7,"estimator":"proposal-side"}`,
		`{"vertex":0,"measure":"coverage","steps":512,"seed":7}`,
		`{"vertex":33,"measure":"kpath","measure_k":3,"epsilon":0.1,"delta":0.2,"max_steps":4096,"seed":11}`,
		`{"vertex":2,"measure":"rwbc","steps":256,"chains":3,"seed":5}`,
		`{"vertex":0,"adaptive":true,"epsilon":0.05,"delta":0.1,"max_steps":4096,"seed":7}`,
		`{"vertex":0,"delta":1.5,"max_steps":512}`,
		`{"vertex":0,"epsilon":1e-12,"max_steps":512}`,
		`{"vertex":0,"mu_bound":1e9,"max_steps":512}`,
		`{"vertex":99,"steps":10}`,
		`{not json`,
	} {
		f.Add([]byte(seed))
	}
	h := NewServerWithLabels(newKarateEngine(f), nil)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req EstimateRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil &&
			!withinFuzzBound(req.Steps, req.MaxSteps, req.Chains, 1) {
			t.Skip("more chain work than the fuzz bound")
		}
		code, reply := fuzzServe(t, h, "/estimate", body)
		if code != http.StatusOK {
			return
		}
		var resp EstimateResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			t.Fatalf("request %s: decoding 200 reply: %v", body, err)
		}
		checkFuzzValue(t, body, resp.Value)
	})
}

func FuzzBatchRequest(f *testing.F) {
	for _, seed := range []string{
		`{"targets":[0,33,2,0,13],"steps":256,"seed":99,"concurrency":2}`,
		`{"targets":[0,33,2,0],"measure":"coverage","steps":256,"seed":99,"concurrency":2}`,
		`{"targets":[0,33,0],"seed":9,"epsilon":0.05,"max_steps":512,"concurrency":4}`,
		`{"targets":[1,2],"adaptive":true,"epsilon":0.05,"max_steps":2048,"chains":2}`,
		`{"targets":[0],"delta":1.5,"max_steps":512}`,
		`{"targets":[0],"mu_bound":1e9,"max_steps":512}`,
		`{"targets":[0,99],"steps":10}`,
		`{"targets":[],"steps":10}`,
	} {
		f.Add([]byte(seed))
	}
	h := NewServerWithLabels(newKarateEngine(f), nil)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req BatchRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil &&
			!withinFuzzBound(req.Steps, req.MaxSteps, req.Chains, len(req.Targets)) {
			t.Skip("more chain work than the fuzz bound")
		}
		code, reply := fuzzServe(t, h, "/estimate/batch", body)
		if code != http.StatusOK {
			return
		}
		var resp BatchResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			t.Fatalf("request %s: decoding 200 reply: %v", body, err)
		}
		for _, r := range resp.Results {
			checkFuzzValue(t, body, r.Value)
		}
	})
}
